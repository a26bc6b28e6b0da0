//! Replicated per-tenant shard state.
//!
//! Each tenant's shard bundles the three stateful surfaces the paper's
//! system keeps per workspace: the **session log** (chat history), the
//! **SQL catalog** (a [`dbgpt_sqlengine::Engine`] with the tenant's audit
//! table), and the **knowledge base** (a [`dbgpt_rag::KnowledgeBase`]).
//!
//! Replication works on a deterministic op log: every acknowledged
//! request is distilled into a [`StateOp`] that replays identically on
//! any replica, and [`TenantState::fingerprint`] folds all three surfaces
//! into one `u64` so tests can assert replica convergence byte-for-byte.

use dbgpt_obs::hash::{Fnv1a, GOLDEN_GAMMA};
use dbgpt_obs::Span;
use dbgpt_rag::{Document, KnowledgeBase};
use dbgpt_sqlengine::Engine;

/// One replicated state transition, derived purely from the request —
/// applying the same op twice on two replicas yields identical state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateOp {
    /// Per-tenant log position (0-based, contiguous).
    pub seq: u64,
    /// Tenant key (e.g. `tenant-003`).
    pub tenant: String,
    /// The prompt that produced this op.
    pub prompt: String,
    /// Simulated completion latency — recorded in the audit row.
    pub latency_us: u64,
}

/// Every Nth op per tenant also ingests a knowledge-base document.
const KB_DOC_EVERY: u64 = 8;

/// One replica's copy of one tenant's shard.
pub struct TenantState {
    tenant: String,
    /// How many ops from the tenant's log this replica has applied.
    pub applied_seq: u64,
    /// The session log: one entry per applied op.
    session_log: Vec<String>,
    sql: Engine,
    kb: KnowledgeBase,
}

impl TenantState {
    /// Fresh shard for `tenant`: empty session log, an `audit` table, an
    /// empty knowledge base.
    pub fn new(tenant: &str) -> Self {
        let mut sql = Engine::new();
        sql.execute("CREATE TABLE audit (seq INT, latency_us INT)")
            .expect("create audit table");
        TenantState {
            tenant: tenant.to_string(),
            applied_seq: 0,
            session_log: Vec::new(),
            sql,
            kb: KnowledgeBase::with_defaults(),
        }
    }

    /// Apply the next op. Panics on a log gap — replication must keep
    /// replicas contiguous (catch up before applying fresh ops).
    /// Returns the rows written.
    pub fn apply(&mut self, op: &StateOp) -> u64 {
        self.apply_under(op, &Span::noop())
    }

    /// [`TenantState::apply`] under a trace span: the audit INSERT runs
    /// through `execute_under` so replica-side SQL work lands in the
    /// request's distributed trace. Returns the rows written.
    pub fn apply_under(&mut self, op: &StateOp, parent: &Span) -> u64 {
        assert_eq!(
            op.seq, self.applied_seq,
            "{}: op {} applied out of order (at {})",
            self.tenant, op.seq, self.applied_seq
        );
        self.session_log
            .push(format!("user#{}: {}", op.seq, op.prompt));
        let res = self
            .sql
            .execute_under(
                &format!("INSERT INTO audit VALUES ({}, {})", op.seq, op.latency_us),
                parent,
            )
            .expect("insert audit row");
        if op.seq.is_multiple_of(KB_DOC_EVERY) {
            let doc = Document::from_text(
                format!("{}-note-{}", self.tenant, op.seq),
                format!(
                    "Operational note {} for {}. The request asked: {}. \
                     Recorded latency was {} microseconds.",
                    op.seq, self.tenant, op.prompt, op.latency_us
                ),
            );
            self.kb.add_document(doc).expect("ingest kb note");
        }
        self.applied_seq += 1;
        res.rows_affected as u64
    }

    /// Number of session-log entries (equals `applied_seq`).
    pub fn session_len(&self) -> usize {
        self.session_log.len()
    }

    /// Build the knowledge base's HNSW index on this replica only. Index
    /// state is *derived data* — it must never leak into
    /// [`TenantState::fingerprint`], so a replica that built the index and
    /// one that did not still converge (see `tests/ann_convergence.rs`).
    pub fn build_ann_index(&mut self) {
        self.kb
            .build_hnsw_index(dbgpt_rag::AnnBuildConfig::default());
    }

    /// Has this replica built its HNSW index?
    pub fn has_hnsw_index(&self) -> bool {
        self.kb.has_hnsw_index()
    }

    /// Fold session log, SQL catalog, and knowledge base into one
    /// order-sensitive FNV-1a digest. Two replicas that applied the same
    /// op prefix produce the same fingerprint.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a-style, but with the ring's multiplier (see
        // `ring::hash_key`), so not `dbgpt_obs::hash::Fnv1a`.
        let mut h = Fnv1a::OFFSET_BASIS;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= *b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        eat(self.tenant.as_bytes());
        eat(&self.applied_seq.to_le_bytes());
        for line in &self.session_log {
            eat(line.as_bytes());
        }
        let mut out = h;
        out ^= self.sql.database().fingerprint().wrapping_mul(GOLDEN_GAMMA);
        out ^= self.kb.fingerprint().wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(seq: u64, tenant: &str) -> StateOp {
        StateOp {
            seq,
            tenant: tenant.to_string(),
            prompt: format!("question {seq}"),
            latency_us: 40_000 + seq,
        }
    }

    #[test]
    fn replay_converges_to_identical_fingerprints() {
        let mut a = TenantState::new("tenant-000");
        let mut b = TenantState::new("tenant-000");
        for s in 0..20 {
            a.apply(&op(s, "tenant-000"));
        }
        for s in 0..20 {
            b.apply(&op(s, "tenant-000"));
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.session_len(), 20);
    }

    #[test]
    fn fingerprint_tracks_divergence() {
        let mut a = TenantState::new("t");
        let mut b = TenantState::new("t");
        a.apply(&op(0, "t"));
        let behind = b.fingerprint();
        b.apply(&op(0, "t"));
        assert_ne!(behind, b.fingerprint(), "applying an op must change it");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = TenantState::new("t");
        c.apply(&StateOp {
            latency_us: 1,
            ..op(0, "t")
        });
        assert_ne!(a.fingerprint(), c.fingerprint(), "payload differs");
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn log_gaps_are_rejected() {
        let mut a = TenantState::new("t");
        a.apply(&op(1, "t"));
    }

    #[test]
    fn audit_rows_accumulate() {
        let mut a = TenantState::new("tenant-001");
        for s in 0..5 {
            a.apply(&op(s, "tenant-001"));
        }
        let rows = a.sql.execute("SELECT seq FROM audit").unwrap();
        assert_eq!(rows.rows.len(), 5);
    }
}
