//! The local-storage communication archive.
//!
//! The paper's differentiator vs MetaGPT/AutoGen: "DB-GPT's Multi-Agent
//! framework archives the entire communication history among its agents
//! within a local storage system, thereby significantly enhancing the
//! reliability of the generated content" (§2.3).
//!
//! [`HistoryArchive`] is that storage system: an append-only JSONL file per
//! archive (optional — in-memory only when no path is given) holding the
//! full history, and an in-memory view of the newest
//! [`RETAINED_CONVERSATIONS`] conversations for queries by conversation
//! and by agent. The view keeps each message as the JSONL line the file
//! holds, so memory stays bounded however long a server runs. `replay`
//! reloads the view from disk — which is what makes agent output
//! *auditable*: every plan, task and result can be traced after the fact.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::error::AgentError;
use crate::message::AgentMessage;

/// How many conversations (the newest) the in-memory view keeps.
pub const RETAINED_CONVERSATIONS: usize = 64;

/// The archive (see module docs).
pub struct HistoryArchive {
    recent: Mutex<Recent>,
    file: Option<Mutex<File>>,
    path: Option<PathBuf>,
}

/// The newest conversations' messages as JSONL lines, in arrival order.
#[derive(Default)]
struct Recent {
    /// Retained conversation ids, oldest first.
    conversations: Vec<String>,
    /// `(conversation, JSONL line)` per message.
    lines: Vec<(String, String)>,
}

impl Recent {
    /// Append a message; a new conversation past the bound evicts the
    /// oldest one with all its messages.
    fn push(&mut self, conversation: &str, line: String) {
        if !self.conversations.iter().any(|c| c == conversation) {
            if self.conversations.len() == RETAINED_CONVERSATIONS {
                let evicted = self.conversations.remove(0);
                self.lines.retain(|(c, _)| *c != evicted);
            }
            self.conversations.push(conversation.to_string());
        }
        self.lines.push((conversation.to_string(), line));
    }

    /// The newest conversations of a JSONL file (unparseable lines skipped).
    fn load(path: &Path) -> Result<Recent, AgentError> {
        let f = File::open(path).map_err(|e| AgentError::Archive(e.to_string()))?;
        let mut recent = Recent::default();
        for line in BufReader::new(f).lines() {
            let line = line.map_err(|e| AgentError::Archive(e.to_string()))?;
            if let Some(m) = AgentMessage::from_jsonl(&line) {
                recent.push(&m.conversation, line);
            }
        }
        Ok(recent)
    }
}

impl HistoryArchive {
    /// In-memory archive (tests, ephemeral sessions).
    pub fn in_memory() -> Self {
        HistoryArchive {
            recent: Mutex::new(Recent::default()),
            file: None,
            path: None,
        }
    }

    /// Durable archive appending to `path` (created if missing; the newest
    /// conversations of existing content are loaded so the archive
    /// continues across sessions).
    pub fn at_path(path: impl AsRef<Path>) -> Result<Self, AgentError> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| AgentError::Archive(format!("create dir: {e}")))?;
            }
        }
        let recent = if path.exists() {
            Recent::load(&path)?
        } else {
            Recent::default()
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| AgentError::Archive(e.to_string()))?;
        Ok(HistoryArchive {
            recent: Mutex::new(recent),
            file: Some(Mutex::new(file)),
            path: Some(path),
        })
    }

    /// Where the archive persists, if durable.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Append one message (written through to disk when durable).
    ///
    /// Disk append and in-memory push happen inside one critical section
    /// (the view's lock): releasing the file lock before taking the view's
    /// lock would let a racing writer interleave, so a `replay` could
    /// observe a different order on disk than in memory.
    pub fn record(&self, msg: AgentMessage) -> Result<(), AgentError> {
        let line = msg.to_jsonl();
        let mut recent = self.recent.lock();
        if let Some(f) = &self.file {
            let mut f = f.lock();
            writeln!(f, "{line}").map_err(|e| AgentError::Archive(e.to_string()))?;
        }
        recent.push(&msg.conversation, line);
        Ok(())
    }

    /// Messages in the in-memory view.
    pub fn len(&self) -> usize {
        self.recent.lock().lines.len()
    }

    /// Is the in-memory view empty?
    pub fn is_empty(&self) -> bool {
        self.recent.lock().lines.is_empty()
    }

    /// All messages of one retained conversation, in order.
    pub fn conversation(&self, id: &str) -> Vec<AgentMessage> {
        let recent = self.recent.lock();
        let lines = recent.lines.iter().filter(|(c, _)| c == id);
        lines.filter_map(|(_, line)| AgentMessage::from_jsonl(line)).collect()
    }

    /// Every retained message sent or received by an agent.
    pub fn by_agent(&self, agent: &str) -> Vec<AgentMessage> {
        let recent = self.recent.lock();
        let all = recent.lines.iter().filter_map(|(_, line)| AgentMessage::from_jsonl(line));
        all.filter(|m| m.from == agent || m.to == agent).collect()
    }

    /// Retained conversation ids, in first-seen order.
    pub fn conversations(&self) -> Vec<String> {
        self.recent.lock().conversations.clone()
    }

    /// Reload the in-memory view from disk: the newest
    /// [`RETAINED_CONVERSATIONS`] conversations (durable archives only).
    /// Returns the number of messages loaded.
    pub fn replay(&self) -> Result<usize, AgentError> {
        let Some(path) = &self.path else {
            return Ok(self.len());
        };
        let loaded = Recent::load(path)?;
        let n = loaded.lines.len();
        *self.recent.lock() = loaded;
        Ok(n)
    }
}

impl std::fmt::Debug for HistoryArchive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistoryArchive")
            .field("messages", &self.len())
            .field("durable", &self.path.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;
    use serde_json::json;

    fn msg(seq: u64, conv: &str, from: &str, to: &str) -> AgentMessage {
        AgentMessage {
            seq,
            conversation: conv.into(),
            from: from.into(),
            to: to.into(),
            kind: MessageKind::Task,
            content: json!({"seq": seq}),
        }
    }

    #[test]
    fn in_memory_record_and_query() {
        let a = HistoryArchive::in_memory();
        a.record(msg(0, "c1", "user", "planner")).unwrap();
        a.record(msg(1, "c1", "planner", "worker")).unwrap();
        a.record(msg(0, "c2", "user", "planner")).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.conversation("c1").len(), 2);
        assert_eq!(a.by_agent("worker").len(), 1);
        assert_eq!(a.conversations(), vec!["c1".to_string(), "c2".to_string()]);
        assert!(a.path().is_none());
    }

    #[test]
    fn durable_archive_persists_and_replays() {
        let dir = std::env::temp_dir().join(format!("dbgpt-archive-{}", std::process::id()));
        let path = dir.join("history.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let a = HistoryArchive::at_path(&path).unwrap();
            a.record(msg(0, "c1", "user", "planner")).unwrap();
            a.record(msg(1, "c1", "planner", "chart")).unwrap();
            assert_eq!(a.replay().unwrap(), 2);
        }
        // Reopen: existing content is loaded.
        let b = HistoryArchive::at_path(&path).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.conversation("c1").len(), 2);
        b.record(msg(2, "c1", "chart", "user")).unwrap();
        assert_eq!(b.replay().unwrap(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_in_memory_is_noop() {
        let a = HistoryArchive::in_memory();
        a.record(msg(0, "c", "a", "b")).unwrap();
        assert_eq!(a.replay().unwrap(), 1);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn corrupt_lines_skipped_on_load() {
        let dir = std::env::temp_dir().join(format!("dbgpt-archive-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.jsonl");
        std::fs::write(
            &path,
            format!("{}\nnot json at all\n", msg(0, "c", "a", "b").to_jsonl()),
        )
        .unwrap();
        let a = HistoryArchive::at_path(&path).unwrap();
        assert_eq!(a.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_disk_order_matches_memory_order() {
        use std::sync::Arc;
        let dir =
            std::env::temp_dir().join(format!("dbgpt-archive-race-{}", std::process::id()));
        let path = dir.join("h.jsonl");
        let _ = std::fs::remove_file(&path);
        let a = Arc::new(HistoryArchive::at_path(&path).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    a.record(msg(i, &format!("c{t}"), "x", "y")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // `by_agent("x")` matches every message and preserves stored order.
        let memory_order: Vec<(String, u64)> = a
            .by_agent("x")
            .iter()
            .map(|m| (m.conversation.clone(), m.seq))
            .collect();
        assert_eq!(a.replay().unwrap(), 200);
        let disk_order: Vec<(String, u64)> = a
            .by_agent("x")
            .iter()
            .map(|m| (m.conversation.clone(), m.seq))
            .collect();
        assert_eq!(memory_order, disk_order, "disk and memory must agree on order");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_recording_is_safe() {
        use std::sync::Arc;
        let a = Arc::new(HistoryArchive::in_memory());
        let mut handles = Vec::new();
        for t in 0..4 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    a.record(msg(i, &format!("c{t}"), "x", "y")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.len(), 100);
        assert_eq!(a.conversations().len(), 4);
    }
}
