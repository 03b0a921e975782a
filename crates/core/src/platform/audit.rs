//! Append-only, hash-chained audit log of control-plane events.
//!
//! Every consequential control-plane action — deploys (cold, warm, and
//! failed), evictions, health transitions, window faults, runtime
//! re-attestation challenges and their verdicts, session and lane
//! fences — is appended to the [`AuditLog`], a [`HashChain`] of
//! [`AuditEvent`]s under the audit domain separators. The chain itself
//! (record framing, first-bad-record verification, canonical bytes) is
//! [`super::chain`]; this module holds the events and their codec.

use super::chain::{
    push_path, push_slot, push_str, push_u64, ChainEntry, ChainRecord, Cursor, HashChain,
};
use super::fleet::{DeployPath, DeviceId, SlotId, TenantId};
use super::health::HealthState;
use crate::runtime_attest::ChallengeVerdict;
use crate::SalusError;

/// One control-plane event worth showing an auditor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// A tenant deployment reached a running session on `slot` via
    /// `path` (cold boot, warm-key redeploy, or warm-image redeploy).
    Deploy {
        /// The deployed tenant.
        tenant: TenantId,
        /// The (device, partition) slot it landed on.
        slot: SlotId,
        /// How much of the boot pipeline was re-run.
        path: DeployPath,
    },
    /// A boot attempt on `slot` failed terminally (for that slot).
    DeployFailed {
        /// The tenant whose boot failed.
        tenant: TenantId,
        /// The slot the boot ran on.
        slot: SlotId,
        /// The rendered error.
        error: String,
    },
    /// A boot suspended mid-machine (outage) and was parked resumable.
    DeploySuspended {
        /// The suspended tenant.
        tenant: TenantId,
        /// The slot holding the suspended boot.
        slot: SlotId,
        /// The boot step the machine stopped at.
        step: String,
    },
    /// A tenant was evicted and its slot released.
    Evicted {
        /// The evicted tenant.
        tenant: TenantId,
        /// The freed slot.
        slot: SlotId,
    },
    /// A board changed admission state in the health tracker.
    HealthTransition {
        /// The board.
        device: DeviceId,
        /// Its new state.
        state: HealthState,
    },
    /// A DRAM window protection fault fired during serving.
    WindowFault {
        /// The tenant whose lane faulted.
        tenant: TenantId,
        /// The slot it runs on.
        slot: SlotId,
    },
    /// A re-attestation challenge was issued to a live CL.
    AttestChallenge {
        /// The sweep epoch.
        epoch: u64,
        /// The challenged tenant.
        tenant: TenantId,
        /// The challenged slot.
        slot: SlotId,
        /// Per-epoch idempotency token: retries inside one challenge
        /// share it, so replays under the fault plane are attributable.
        token: u64,
    },
    /// A re-attestation challenge reached a verdict.
    AttestOutcome {
        /// The sweep epoch.
        epoch: u64,
        /// The challenged tenant.
        tenant: TenantId,
        /// The challenged slot.
        slot: SlotId,
        /// The terminal verdict.
        verdict: ChallengeVerdict,
    },
    /// A session was fenced by the re-attestation plane.
    SessionFenced {
        /// The fenced tenant.
        tenant: TenantId,
        /// The slot its session held.
        slot: SlotId,
    },
    /// A serving lane was fenced and its queue drained with errors.
    LaneFenced {
        /// The fenced tenant.
        tenant: TenantId,
        /// The slot its lane served.
        slot: SlotId,
        /// Queued requests drained with a `SessionFenced` error.
        drained: u64,
    },
    /// Capability-aware placement refused a deployment before any boot
    /// ran — e.g. a bitstream compiled for one device family asked to
    /// land on a fleet with no compatible free board (fail closed).
    PlacementRefused {
        /// The refused tenant.
        tenant: TenantId,
        /// The rendered refusal.
        reason: String,
    },
    /// A tenant gave up a suspended deploy: the lease was released
    /// without a boot ever completing (distinct from `DeployFailed` —
    /// the tenant chose to stop, no board misbehaved).
    DeployAbandoned {
        /// The abandoning tenant.
        tenant: TenantId,
        /// The slot it released.
        slot: SlotId,
    },
    /// Control-plane recovery finished rebuilding this plane from its
    /// write-ahead journal after a crash.
    RecoveryCompleted {
        /// Committed operations replayed into the fresh plane.
        replayed: u64,
        /// Open intents rolled back (the crash ate their effects).
        rolled_back: u64,
    },
}

const TAG_DEPLOY: u8 = 1;
const TAG_DEPLOY_FAILED: u8 = 2;
const TAG_DEPLOY_SUSPENDED: u8 = 3;
const TAG_EVICTED: u8 = 4;
const TAG_HEALTH: u8 = 5;
const TAG_WINDOW_FAULT: u8 = 6;
const TAG_ATTEST_CHALLENGE: u8 = 7;
const TAG_ATTEST_OUTCOME: u8 = 8;
const TAG_SESSION_FENCED: u8 = 9;
const TAG_LANE_FENCED: u8 = 10;
const TAG_PLACEMENT_REFUSED: u8 = 11;
const TAG_DEPLOY_ABANDONED: u8 = 12;
const TAG_RECOVERY_COMPLETED: u8 = 13;

fn health_tag(state: HealthState) -> u8 {
    match state {
        HealthState::Healthy => 0,
        HealthState::Probation => 1,
        HealthState::Quarantined => 2,
    }
}

fn verdict_tag(verdict: ChallengeVerdict) -> u8 {
    match verdict {
        ChallengeVerdict::Alive => 0,
        ChallengeVerdict::Compromised => 1,
        ChallengeVerdict::TimedOut => 2,
    }
}

/// Tag byte, tenant and slot: the head most events share.
fn push_tenant_slot(out: &mut Vec<u8>, tag: u8, tenant: TenantId, slot: SlotId) {
    out.push(tag);
    push_u64(out, tenant.0);
    push_slot(out, slot);
}

/// Canonical event bytes: one tag byte, then the fields in declaration
/// order, little-endian, strings length-prefixed.
impl ChainEntry for AuditEvent {
    const MAGIC: &'static [u8; 16] = b"salus-audit-log\0";
    const GENESIS: &'static [u8] = b"salus-audit-genesis";
    const RECORD_DOMAIN: &'static [u8] = b"salus-audit-record";

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AuditEvent::Deploy { tenant, slot, path } => {
                push_tenant_slot(out, TAG_DEPLOY, *tenant, *slot);
                push_path(out, Some(*path));
            }
            AuditEvent::DeployFailed {
                tenant,
                slot,
                error,
            } => {
                push_tenant_slot(out, TAG_DEPLOY_FAILED, *tenant, *slot);
                push_str(out, error);
            }
            AuditEvent::DeploySuspended { tenant, slot, step } => {
                push_tenant_slot(out, TAG_DEPLOY_SUSPENDED, *tenant, *slot);
                push_str(out, step);
            }
            AuditEvent::Evicted { tenant, slot } => {
                push_tenant_slot(out, TAG_EVICTED, *tenant, *slot);
            }
            AuditEvent::HealthTransition { device, state } => {
                out.push(TAG_HEALTH);
                push_u64(out, *device as u64);
                out.push(health_tag(*state));
            }
            AuditEvent::WindowFault { tenant, slot } => {
                push_tenant_slot(out, TAG_WINDOW_FAULT, *tenant, *slot);
            }
            AuditEvent::AttestChallenge {
                epoch,
                tenant,
                slot,
                token,
            } => {
                out.push(TAG_ATTEST_CHALLENGE);
                push_u64(out, *epoch);
                push_u64(out, tenant.0);
                push_slot(out, *slot);
                push_u64(out, *token);
            }
            AuditEvent::AttestOutcome {
                epoch,
                tenant,
                slot,
                verdict,
            } => {
                out.push(TAG_ATTEST_OUTCOME);
                push_u64(out, *epoch);
                push_u64(out, tenant.0);
                push_slot(out, *slot);
                out.push(verdict_tag(*verdict));
            }
            AuditEvent::SessionFenced { tenant, slot } => {
                push_tenant_slot(out, TAG_SESSION_FENCED, *tenant, *slot);
            }
            AuditEvent::LaneFenced {
                tenant,
                slot,
                drained,
            } => {
                push_tenant_slot(out, TAG_LANE_FENCED, *tenant, *slot);
                push_u64(out, *drained);
            }
            AuditEvent::PlacementRefused { tenant, reason } => {
                out.push(TAG_PLACEMENT_REFUSED);
                push_u64(out, tenant.0);
                push_str(out, reason);
            }
            AuditEvent::DeployAbandoned { tenant, slot } => {
                push_tenant_slot(out, TAG_DEPLOY_ABANDONED, *tenant, *slot);
            }
            AuditEvent::RecoveryCompleted {
                replayed,
                rolled_back,
            } => {
                out.push(TAG_RECOVERY_COMPLETED);
                push_u64(out, *replayed);
                push_u64(out, *rolled_back);
            }
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<AuditEvent, SalusError> {
        let tag = cur.u8()?;
        Ok(match tag {
            TAG_DEPLOY => AuditEvent::Deploy {
                tenant: TenantId(cur.u64()?),
                slot: cur.slot()?,
                path: cur.path()?.ok_or(cur.error("unknown deploy path"))?,
            },
            TAG_DEPLOY_FAILED => AuditEvent::DeployFailed {
                tenant: TenantId(cur.u64()?),
                slot: cur.slot()?,
                error: cur.string()?,
            },
            TAG_DEPLOY_SUSPENDED => AuditEvent::DeploySuspended {
                tenant: TenantId(cur.u64()?),
                slot: cur.slot()?,
                step: cur.string()?,
            },
            TAG_EVICTED => AuditEvent::Evicted {
                tenant: TenantId(cur.u64()?),
                slot: cur.slot()?,
            },
            TAG_HEALTH => AuditEvent::HealthTransition {
                device: cur.u64()? as usize,
                state: match cur.u8()? {
                    0 => HealthState::Healthy,
                    1 => HealthState::Probation,
                    2 => HealthState::Quarantined,
                    _ => return Err(cur.error("unknown health state")),
                },
            },
            TAG_WINDOW_FAULT => AuditEvent::WindowFault {
                tenant: TenantId(cur.u64()?),
                slot: cur.slot()?,
            },
            TAG_ATTEST_CHALLENGE => AuditEvent::AttestChallenge {
                epoch: cur.u64()?,
                tenant: TenantId(cur.u64()?),
                slot: cur.slot()?,
                token: cur.u64()?,
            },
            TAG_ATTEST_OUTCOME => AuditEvent::AttestOutcome {
                epoch: cur.u64()?,
                tenant: TenantId(cur.u64()?),
                slot: cur.slot()?,
                verdict: match cur.u8()? {
                    0 => ChallengeVerdict::Alive,
                    1 => ChallengeVerdict::Compromised,
                    2 => ChallengeVerdict::TimedOut,
                    _ => return Err(cur.error("unknown verdict")),
                },
            },
            TAG_SESSION_FENCED => AuditEvent::SessionFenced {
                tenant: TenantId(cur.u64()?),
                slot: cur.slot()?,
            },
            TAG_LANE_FENCED => AuditEvent::LaneFenced {
                tenant: TenantId(cur.u64()?),
                slot: cur.slot()?,
                drained: cur.u64()?,
            },
            TAG_PLACEMENT_REFUSED => AuditEvent::PlacementRefused {
                tenant: TenantId(cur.u64()?),
                reason: cur.string()?,
            },
            TAG_DEPLOY_ABANDONED => AuditEvent::DeployAbandoned {
                tenant: TenantId(cur.u64()?),
                slot: cur.slot()?,
            },
            TAG_RECOVERY_COMPLETED => AuditEvent::RecoveryCompleted {
                replayed: cur.u64()?,
                rolled_back: cur.u64()?,
            },
            _ => return Err(cur.error("unknown event tag")),
        })
    }

    fn error(reason: &'static str) -> SalusError {
        SalusError::AuditChainBroken(reason)
    }
}

/// One hash-chained entry of the audit log.
pub type AuditRecord = ChainRecord<AuditEvent>;

/// The append-only audit hash chain. [`AuditLog::verify_chain`]
/// pinpoints the first broken record; [`AuditLog::to_bytes`] gives the
/// canonical serialization two same-seed control planes are compared
/// by.
pub type AuditLog = HashChain<AuditEvent>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn deploy_events_refuse_the_journal_none_path_tag() {
        // The deploy-path codec is shared with the journal, whose
        // commits may carry no path (tag 255); an audited deploy always
        // has one.
        let mut log = AuditLog::new();
        log.append(
            Duration::ZERO,
            AuditEvent::Deploy {
                tenant: TenantId(1),
                slot: SlotId {
                    device: 0,
                    partition: 0,
                },
                path: DeployPath::WarmKey,
            },
        );
        let mut bytes = log.to_bytes();
        // magic + count + seq + at + prev + len, then tag, tenant, slot.
        let path_at = 16 + 8 + 8 + 16 + 32 + 8 + 1 + 8 + 16;
        assert_eq!(bytes[path_at], 1);
        bytes[path_at] = 255;
        assert_eq!(
            AuditLog::from_bytes(&bytes),
            Err(SalusError::AuditChainBroken("unknown deploy path"))
        );
    }
}
