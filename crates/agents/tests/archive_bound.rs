//! The archive's in-memory view stays bounded over many goals, while a
//! durable archive's file keeps the full history.

use std::sync::Arc;

use dbgpt_agents::memory::RETAINED_CONVERSATIONS;
use dbgpt_agents::{HistoryArchive, LlmClient, MessageKind, Orchestrator};
use dbgpt_llm::catalog::builtin_model;

const GOALS: usize = 1_000;
const GOAL: &str = "collect the logs, email the summary";

fn orchestrator(archive: Arc<HistoryArchive>) -> Orchestrator {
    Orchestrator::with_archive(
        LlmClient::direct(builtin_model("sim-qwen").unwrap()),
        archive,
    )
}

/// Runs `GOALS` goals and returns the last one's conversation id and
/// message count.
fn run_goals(o: &mut Orchestrator) -> (String, usize) {
    let mut last = String::new();
    for _ in 0..GOALS {
        last = o.execute_goal(GOAL).unwrap().conversation;
    }
    let n = o.archive().conversation(&last).len();
    (last, n)
}

#[test]
fn in_memory_view_keeps_the_newest_conversations_whole() {
    let mut o = orchestrator(Arc::new(HistoryArchive::in_memory()));
    let first = o.execute_goal(GOAL).unwrap();
    let per_goal = o.archive().len();
    assert!(per_goal >= 3, "a goal archives goal, plan and report");
    let (last, n) = run_goals(&mut o);
    let archive = o.archive();
    let kept = archive.conversations();
    assert_eq!(kept.len(), RETAINED_CONVERSATIONS);
    assert_eq!(kept.last(), Some(&last));
    assert!(!kept.contains(&first.conversation));
    assert!(archive.conversation(&first.conversation).is_empty());
    // The newest conversation is complete: goal first, report last,
    // dense sequence numbers.
    assert_eq!(n, per_goal);
    let msgs = archive.conversation(&last);
    assert_eq!(msgs[0].kind, MessageKind::Goal);
    assert_eq!(msgs.last().unwrap().kind, MessageKind::Report);
    for (i, m) in msgs.iter().enumerate() {
        assert_eq!(m.seq, i as u64);
    }
    assert_eq!(archive.len(), RETAINED_CONVERSATIONS * per_goal);
}

#[test]
fn durable_file_keeps_everything_and_replay_loads_the_newest() {
    let dir = std::env::temp_dir().join(format!("dbgpt-archive-bound-{}", std::process::id()));
    let path = dir.join("history.jsonl");
    let _ = std::fs::remove_file(&path);
    let archive = Arc::new(HistoryArchive::at_path(&path).unwrap());
    let mut o = orchestrator(archive.clone());
    let (last, per_goal) = run_goals(&mut o);

    // The file holds every message of every goal.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut convs: Vec<String> = text
        .lines()
        .map(|l| {
            dbgpt_agents::AgentMessage::from_jsonl(l)
                .unwrap()
                .conversation
        })
        .collect();
    assert_eq!(convs.len(), GOALS * per_goal);
    convs.dedup();
    assert_eq!(convs.len(), GOALS);

    // Replay (and a reopen) load exactly the newest conversations.
    let newest = convs[GOALS - RETAINED_CONVERSATIONS..].to_vec();
    let before = archive.conversations();
    assert_eq!(before, newest);
    assert_eq!(archive.replay().unwrap(), RETAINED_CONVERSATIONS * per_goal);
    assert_eq!(archive.conversations(), newest);
    assert_eq!(archive.conversation(&last).len(), per_goal);
    let reopened = HistoryArchive::at_path(&path).unwrap();
    assert_eq!(reopened.conversations(), newest);
    std::fs::remove_dir_all(&dir).ok();
}
