//! Write-ahead intent journal of the control plane.
//!
//! Every multi-step control-plane mutation — deploys, evictions, warm
//! redeploys, fences, suspension resumes and abandons — writes an
//! *intent* record here before touching any fleet state, and a *commit*
//! record only after every effect of the operation is in place
//! (an [`abort`](Journal::abort) or [`suspend`](Journal::suspend)
//! record closes the other outcomes). The journal is therefore the one
//! durable truth about what the control plane was doing when it died:
//! recovery replays committed intents to rebuild occupancy, health,
//! and tenant records, and rolls back — or rolls forward, when the
//! effects are durably present — whatever was still open.
//!
//! Records live on a [`HashChain`] of [`JournalEntry`]s under the
//! journal's own domain separators (the chain framing is
//! [`super::chain`]). [`Journal::verify`] runs the chain walk and then
//! the op-structure checks — a commit, abort, or suspend must reference
//! an intent the journal opened and has not yet settled.

use std::collections::HashMap;
use std::time::Duration;

use salus_crypto::sha256::Digest;

use super::chain::{
    push_duration, push_path, push_slot, push_str, push_u64, ChainEntry, ChainFault, ChainRecord,
    Cursor, HashChain,
};
use super::fleet::{DeployPath, SlotId, TenantId};
use crate::SalusError;

/// Identity of one journaled operation: the index of its intent record
/// among all intents, assigned by [`Journal::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

/// What a journaled operation set out to do, written *before* acting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntentOp {
    /// Register a tenant under `name` with its derived seed. The two
    /// writes (intent, commit) bracket nothing fallible, but the record
    /// is what lets recovery rebuild the registry with identical ids
    /// and seeds.
    Register {
        /// The id the registry will assign.
        tenant: TenantId,
        /// The tenant's name.
        name: String,
        /// The deterministic per-tenant seed.
        seed: u64,
    },
    /// Boot `tenant` onto the freshly leased `slot` (one placement of a
    /// deploy; each cross-board retry opens its own intent).
    Deploy {
        /// The deploying tenant.
        tenant: TenantId,
        /// The leased slot the boot runs on.
        slot: SlotId,
    },
    /// Resume `tenant`'s suspended boot on its still-leased `slot`.
    Resume {
        /// The suspended tenant.
        tenant: TenantId,
        /// The slot the suspension kept leased.
        slot: SlotId,
    },
    /// Park `tenant`'s deployment and free `slot`.
    Evict {
        /// The evicted tenant.
        tenant: TenantId,
        /// The slot being freed.
        slot: SlotId,
    },
    /// Warm-image reload of `tenant`'s parked ciphertext onto `slot`.
    Redeploy {
        /// The returning tenant.
        tenant: TenantId,
        /// The re-leased affinity slot.
        slot: SlotId,
    },
    /// Fence `tenant`'s running deployment and free `slot`.
    Fence {
        /// The fenced tenant.
        tenant: TenantId,
        /// The slot being released.
        slot: SlotId,
    },
    /// Give up `tenant`'s suspended boot and free `slot`.
    Abandon {
        /// The abandoning tenant.
        tenant: TenantId,
        /// The slot being released.
        slot: SlotId,
    },
}

impl IntentOp {
    /// The tenant the operation acts for.
    pub fn tenant(&self) -> TenantId {
        match self {
            IntentOp::Register { tenant, .. }
            | IntentOp::Deploy { tenant, .. }
            | IntentOp::Resume { tenant, .. }
            | IntentOp::Evict { tenant, .. }
            | IntentOp::Redeploy { tenant, .. }
            | IntentOp::Fence { tenant, .. }
            | IntentOp::Abandon { tenant, .. } => *tenant,
        }
    }

    /// The slot the operation acts on (`None` for registration).
    pub fn slot(&self) -> Option<SlotId> {
        match self {
            IntentOp::Register { .. } => None,
            IntentOp::Deploy { slot, .. }
            | IntentOp::Resume { slot, .. }
            | IntentOp::Evict { slot, .. }
            | IntentOp::Redeploy { slot, .. }
            | IntentOp::Fence { slot, .. }
            | IntentOp::Abandon { slot, .. } => Some(*slot),
        }
    }
}

/// Why an open intent was closed without committing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortKind {
    /// The operation itself failed (boot error, release refusal): the
    /// board and tenant are charged exactly as the live path charged
    /// them, so replay reproduces health and registry state.
    Failed,
    /// Recovery rolled the intent back after a crash: the controller
    /// died, the operation never happened, and neither the board nor
    /// the tenant is charged for it.
    RolledBack,
}

/// One journal entry. An operation's life is `Intent` → effects →
/// exactly one of `Commit` / `Abort`, possibly pausing at `Suspend`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEntry {
    /// An operation is about to run.
    Intent {
        /// The id [`Journal::begin`] assigned.
        op: OpId,
        /// What it set out to do.
        action: IntentOp,
    },
    /// Every effect of `op` is in place; replay must apply them.
    Commit {
        /// The committed operation.
        op: OpId,
        /// The deploy path taken, for deploy-like ops.
        path: Option<DeployPath>,
        /// Model time the operation consumed (deploy-like ops charge it
        /// to the tenant record on replay).
        elapsed: Duration,
    },
    /// `op` ended without its effects; see [`AbortKind`] for charging.
    Abort {
        /// The aborted operation.
        op: OpId,
        /// The rendered error.
        reason: String,
        /// Whether replay charges the board and tenant.
        kind: AbortKind,
    },
    /// `op` parked resumable (manufacturer outage); its slot stays
    /// leased until a later resume or abandon op settles it.
    Suspend {
        /// The suspended operation.
        op: OpId,
        /// The boot step it parked on.
        step: String,
    },
}

impl JournalEntry {
    /// The operation this entry belongs to.
    pub fn op(&self) -> OpId {
        match self {
            JournalEntry::Intent { op, .. }
            | JournalEntry::Commit { op, .. }
            | JournalEntry::Abort { op, .. }
            | JournalEntry::Suspend { op, .. } => *op,
        }
    }
}

const TAG_INTENT: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_ABORT: u8 = 3;
const TAG_SUSPEND: u8 = 4;

const OP_REGISTER: u8 = 1;
const OP_DEPLOY: u8 = 2;
const OP_RESUME: u8 = 3;
const OP_EVICT: u8 = 4;
const OP_REDEPLOY: u8 = 5;
const OP_FENCE: u8 = 6;
const OP_ABANDON: u8 = 7;

impl IntentOp {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            IntentOp::Register { .. } => OP_REGISTER,
            IntentOp::Deploy { .. } => OP_DEPLOY,
            IntentOp::Resume { .. } => OP_RESUME,
            IntentOp::Evict { .. } => OP_EVICT,
            IntentOp::Redeploy { .. } => OP_REDEPLOY,
            IntentOp::Fence { .. } => OP_FENCE,
            IntentOp::Abandon { .. } => OP_ABANDON,
        });
        push_u64(out, self.tenant().0);
        if let IntentOp::Register { name, seed, .. } = self {
            push_str(out, name);
            push_u64(out, *seed);
        }
        if let Some(slot) = self.slot() {
            push_slot(out, slot);
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<IntentOp, SalusError> {
        let make: fn(TenantId, SlotId) -> IntentOp = match cur.u8()? {
            OP_REGISTER => {
                return Ok(IntentOp::Register {
                    tenant: TenantId(cur.u64()?),
                    name: cur.string()?,
                    seed: cur.u64()?,
                })
            }
            OP_DEPLOY => |tenant, slot| IntentOp::Deploy { tenant, slot },
            OP_RESUME => |tenant, slot| IntentOp::Resume { tenant, slot },
            OP_EVICT => |tenant, slot| IntentOp::Evict { tenant, slot },
            OP_REDEPLOY => |tenant, slot| IntentOp::Redeploy { tenant, slot },
            OP_FENCE => |tenant, slot| IntentOp::Fence { tenant, slot },
            OP_ABANDON => |tenant, slot| IntentOp::Abandon { tenant, slot },
            _ => return Err(cur.error("unknown intent op")),
        };
        Ok(make(TenantId(cur.u64()?), cur.slot()?))
    }
}

/// Canonical entry bytes: one tag byte, then the fields in declaration
/// order, little-endian, strings length-prefixed.
impl ChainEntry for JournalEntry {
    const MAGIC: &'static [u8; 16] = b"salus-journal\0\0\0";
    const GENESIS: &'static [u8] = b"salus-journal-genesis";
    const RECORD_DOMAIN: &'static [u8] = b"salus-journal-record";

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JournalEntry::Intent { op, action } => {
                out.push(TAG_INTENT);
                push_u64(out, op.0);
                action.encode(out);
            }
            JournalEntry::Commit { op, path, elapsed } => {
                out.push(TAG_COMMIT);
                push_u64(out, op.0);
                push_path(out, *path);
                push_duration(out, *elapsed);
            }
            JournalEntry::Abort { op, reason, kind } => {
                out.push(TAG_ABORT);
                push_u64(out, op.0);
                push_str(out, reason);
                out.push(match kind {
                    AbortKind::Failed => 0,
                    AbortKind::RolledBack => 1,
                });
            }
            JournalEntry::Suspend { op, step } => {
                out.push(TAG_SUSPEND);
                push_u64(out, op.0);
                push_str(out, step);
            }
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<JournalEntry, SalusError> {
        Ok(match cur.u8()? {
            TAG_INTENT => JournalEntry::Intent {
                op: OpId(cur.u64()?),
                action: IntentOp::decode(cur)?,
            },
            TAG_COMMIT => JournalEntry::Commit {
                op: OpId(cur.u64()?),
                path: cur.path()?,
                elapsed: cur.duration()?,
            },
            TAG_ABORT => JournalEntry::Abort {
                op: OpId(cur.u64()?),
                reason: cur.string()?,
                kind: match cur.u8()? {
                    0 => AbortKind::Failed,
                    1 => AbortKind::RolledBack,
                    _ => return Err(cur.error("unknown abort kind")),
                },
            },
            TAG_SUSPEND => JournalEntry::Suspend {
                op: OpId(cur.u64()?),
                step: cur.string()?,
            },
            _ => return Err(cur.error("unknown entry tag")),
        })
    }

    fn error(reason: &'static str) -> SalusError {
        SalusError::JournalCorrupt(reason)
    }
}

/// One hash-chained journal record.
pub type JournalRecord = ChainRecord<JournalEntry>;

/// One still-unsettled operation, as reported by [`Journal::open_ops`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenOp {
    /// The operation.
    pub op: OpId,
    /// Its journaled intent.
    pub action: IntentOp,
    /// True when the last word on the op is a `Suspend` record (the
    /// tenant may still resume it); false for an op the crash caught
    /// mid-flight.
    pub suspended: bool,
}

/// The write-ahead journal itself: an append-only hash chain plus the
/// op-id counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    chain: HashChain<JournalEntry>,
    next_op: u64,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// The fixed digest the first record chains from.
    pub fn genesis() -> Digest {
        HashChain::<JournalEntry>::genesis()
    }

    /// Rebuilds a journal from raw records *without* verifying them;
    /// run [`verify`](Journal::verify) afterwards. The op counter
    /// resumes after the highest intent id present.
    pub fn from_records(records: Vec<JournalRecord>) -> Journal {
        Journal::from_chain(HashChain::from_records(records))
    }

    fn from_chain(chain: HashChain<JournalEntry>) -> Journal {
        let next_op = chain
            .records()
            .iter()
            .filter_map(|r| match &r.entry {
                JournalEntry::Intent { op, .. } => Some(op.0 + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        Journal { chain, next_op }
    }

    /// Opens a new operation: appends its intent record at virtual time
    /// `at` and returns the assigned id.
    pub fn begin(&mut self, at: Duration, action: IntentOp) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        self.chain.append(at, JournalEntry::Intent { op, action });
        op
    }

    /// Commits `op`: every effect of the operation is in place.
    pub fn commit(&mut self, at: Duration, op: OpId, path: Option<DeployPath>, elapsed: Duration) {
        self.chain
            .append(at, JournalEntry::Commit { op, path, elapsed });
    }

    /// Closes `op` without its effects.
    pub fn abort(&mut self, at: Duration, op: OpId, reason: &str, kind: AbortKind) {
        let reason = reason.to_owned();
        self.chain
            .append(at, JournalEntry::Abort { op, reason, kind });
    }

    /// Parks `op` resumable at boot step `step`.
    pub fn suspend(&mut self, at: Duration, op: OpId, step: &str) {
        let step = step.to_owned();
        self.chain.append(at, JournalEntry::Suspend { op, step });
    }

    /// The digest of the latest record (the genesis digest when empty).
    pub fn head(&self) -> Digest {
        self.chain.head()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.chain.len()
    }

    /// True when nothing was ever journaled.
    pub fn is_empty(&self) -> bool {
        self.chain.is_empty()
    }

    /// The records, oldest first.
    pub fn records(&self) -> &[JournalRecord] {
        self.chain.records()
    }

    /// Every operation with an intent but no commit or abort, in op
    /// order — the set recovery must settle.
    pub fn open_ops(&self) -> Vec<OpenOp> {
        let mut open: Vec<OpenOp> = Vec::new();
        for record in self.records() {
            match &record.entry {
                JournalEntry::Intent { op, action } => open.push(OpenOp {
                    op: *op,
                    action: action.clone(),
                    suspended: false,
                }),
                JournalEntry::Commit { op, .. } | JournalEntry::Abort { op, .. } => {
                    open.retain(|o| o.op != *op);
                }
                JournalEntry::Suspend { op, .. } => {
                    if let Some(o) = open.iter_mut().find(|o| o.op == *op) {
                        o.suspended = true;
                    }
                }
            }
        }
        open.sort_by_key(|o| o.op);
        open
    }

    /// Walks the chain ([`HashChain::verify_chain`]), then checks op
    /// structure on the records before the first chain fault, and
    /// reports whichever bad record comes first: a commit, abort, or
    /// suspend referencing an operation the journal never opened (or
    /// already settled), or an intent reusing an op id — none of which
    /// a replayer may trust.
    ///
    /// # Errors
    ///
    /// [`ChainFault`] naming the first bad record.
    pub fn verify(&self) -> Result<(), ChainFault> {
        let walk = self.chain.verify_chain();
        let walked = walk.as_ref().map_or_else(|f| f.index, |()| self.len());
        // OpId → settled? (false = open, true = committed/aborted)
        let mut ops: HashMap<OpId, bool> = HashMap::new();
        for (index, record) in self.records()[..walked].iter().enumerate() {
            let fault = match &record.entry {
                JournalEntry::Intent { op, .. } => {
                    ops.insert(*op, false).map(|_| "intent reuses an op id")
                }
                JournalEntry::Commit { op, .. } | JournalEntry::Abort { op, .. } => {
                    match ops.get_mut(op) {
                        Some(settled @ false) => {
                            *settled = true;
                            None
                        }
                        Some(true) => Some("op settled twice"),
                        None => Some("references an op with no intent"),
                    }
                }
                JournalEntry::Suspend { op, .. } => match ops.get(op) {
                    Some(false) => None,
                    Some(true) => Some("suspend on a settled op"),
                    None => Some("references an op with no intent"),
                },
            };
            if let Some(reason) = fault {
                return Err(ChainFault::new::<JournalEntry>(index, reason));
            }
        }
        walk
    }

    /// Canonical serialization of the whole journal. Two journals
    /// holding the same history serialize identically.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.chain.to_bytes()
    }

    /// Decodes a serialized journal. Decoding checks structure only;
    /// run [`verify`](Journal::verify) on the result for integrity.
    ///
    /// # Errors
    ///
    /// [`SalusError::JournalCorrupt`] on any malformed framing.
    pub fn from_bytes(bytes: &[u8]) -> Result<Journal, SalusError> {
        HashChain::from_bytes(bytes).map(Journal::from_chain)
    }
}

#[cfg(test)]
mod tests {
    //! Journal-only checks: the op counter and op structure. The chain
    //! framing, tamper and bit-flip suite runs for the journal in
    //! `platform::chain::tests::journal`.

    use super::*;

    fn slot(device: usize, partition: usize) -> SlotId {
        SlotId { device, partition }
    }

    fn deploy(tenant: u64) -> IntentOp {
        IntentOp::Deploy {
            tenant: TenantId(tenant),
            slot: slot(0, 0),
        }
    }

    #[test]
    fn empty_journal_verifies_with_no_open_ops() {
        let journal = Journal::new();
        assert_eq!(journal.head(), Journal::genesis());
        journal.verify().unwrap();
        assert!(journal.open_ops().is_empty());
    }

    #[test]
    fn open_ops_tracks_intents_until_settled() {
        let mut journal = Journal::new();
        let t = Duration::ZERO;
        let a = journal.begin(t, deploy(1));
        let b = journal.begin(
            t,
            IntentOp::Evict {
                tenant: TenantId(2),
                slot: slot(1, 0),
            },
        );
        assert_eq!(journal.open_ops().len(), 2);

        journal.suspend(t, a, "DeviceKeyTransfer");
        let open = journal.open_ops();
        assert!(open.iter().any(|o| o.op == a && o.suspended));
        assert!(open.iter().any(|o| o.op == b && !o.suspended));

        journal.commit(t, a, Some(DeployPath::Cold), Duration::ZERO);
        journal.abort(t, b, "release refused", AbortKind::RolledBack);
        assert!(journal.open_ops().is_empty());
        journal.verify().unwrap();
    }

    #[test]
    fn dangling_and_double_settlements_are_rejected() {
        let t = Duration::ZERO;

        // A commit with no intent: a replayer must never apply it.
        let mut journal = Journal::new();
        journal.commit(t, OpId(9), None, Duration::ZERO);
        let fault = journal.verify().unwrap_err();
        assert_eq!(fault.reason, "references an op with no intent");
        assert_eq!(
            SalusError::from(fault),
            SalusError::JournalCorrupt("references an op with no intent")
        );

        // Settling one op twice.
        let mut journal = Journal::new();
        let op = journal.begin(
            t,
            IntentOp::Fence {
                tenant: TenantId(1),
                slot: slot(0, 0),
            },
        );
        journal.commit(t, op, None, Duration::ZERO);
        journal.abort(t, op, "again", AbortKind::Failed);
        let fault = journal.verify().unwrap_err();
        assert_eq!(fault.index, 2);
        assert_eq!(fault.reason, "op settled twice");

        // Suspending a settled op.
        let mut journal = Journal::new();
        let op = journal.begin(t, deploy(1));
        journal.commit(t, op, None, Duration::ZERO);
        journal.suspend(t, op, "DeviceKeyTransfer");
        let fault = journal.verify().unwrap_err();
        assert_eq!(fault.index, 2);
        assert_eq!(fault.reason, "suspend on a settled op");

        // Reused intent id.
        let mut journal = Journal::new();
        journal.begin(
            t,
            IntentOp::Register {
                tenant: TenantId(0),
                name: "a".into(),
                seed: 1,
            },
        );
        let mut records = journal.records().to_vec();
        let mut dup = records[0].clone();
        dup.seq = 1;
        dup.prev_digest = records[0].digest;
        dup.digest = dup.expected_digest();
        records.push(dup);
        let fault = Journal::from_records(records).verify().unwrap_err();
        assert_eq!(fault.index, 1);
        assert_eq!(fault.reason, "intent reuses an op id");
    }

    #[test]
    fn the_first_bad_record_wins_between_chain_and_op_faults() {
        let t = Duration::ZERO;
        // Record 1 is a dangling commit; record 3 is forged.
        let mut journal = Journal::new();
        journal.begin(t, deploy(1));
        journal.commit(t, OpId(7), None, Duration::ZERO);
        let op = journal.begin(t, deploy(2));
        journal.commit(t, op, None, Duration::ZERO);
        let mut records = journal.records().to_vec();
        records[3].at += Duration::from_secs(1);
        let fault = Journal::from_records(records).verify().unwrap_err();
        assert_eq!(fault.index, 1);
        assert_eq!(fault.reason, "references an op with no intent");

        // A forgery before a dangling commit is reported at the forgery.
        let mut journal = Journal::new();
        let op = journal.begin(t, deploy(1));
        journal.commit(t, op, None, Duration::ZERO);
        journal.commit(t, OpId(7), None, Duration::ZERO);
        let mut records = journal.records().to_vec();
        records[1].at += Duration::from_secs(1);
        let fault = Journal::from_records(records).verify().unwrap_err();
        assert_eq!(fault.index, 1);
        assert_eq!(fault.reason, "digest does not match record contents");
    }

    #[test]
    fn roundtrip_preserves_records_and_op_counter() {
        let mut journal = Journal::new();
        for i in 0..18 {
            let op = journal.begin(Duration::from_millis(i), deploy(i));
            journal.commit(Duration::from_millis(i), op, None, Duration::ZERO);
        }
        let mut decoded = Journal::from_bytes(&journal.to_bytes()).unwrap();
        assert_eq!(decoded, journal);
        decoded.verify().unwrap();

        // The restored op counter continues, never reuses.
        let op = decoded.begin(Duration::from_secs(3600), deploy(0));
        assert_eq!(op, OpId(18));
    }
}
