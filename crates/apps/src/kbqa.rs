//! Knowledge-base question answering over the RAG stack.
//!
//! "question answering based on knowledge bases" (§2.1), wired exactly as
//! Fig. 2 describes: the query retrieves top-k paragraphs under a
//! selectable strategy, the ICL builder packs them (with privacy
//! redaction) into a QA prompt, and the model answers extractively.

use serde::Serialize;

use dbgpt_llm::GenerationParams;
use dbgpt_obs::Span;
use dbgpt_rag::{IclBuilder, RetrievalStrategy};

use crate::context::AppContext;
use crate::error::AppError;

/// One KBQA answer with its provenance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KbqaReply {
    /// The model's answer.
    pub answer: String,
    /// Ids of the documents whose chunks were retrieved.
    pub sources: Vec<String>,
    /// Number of chunks packed into the prompt.
    pub chunks_used: usize,
}

/// The KBQA app.
#[derive(Clone)]
pub struct KnowledgeQa {
    ctx: AppContext,
    strategy: RetrievalStrategy,
    top_k: usize,
    prompt_budget: usize,
    rerank: bool,
}

impl KnowledgeQa {
    /// App with hybrid retrieval, k = 4, 1024-token prompts.
    pub fn new(ctx: AppContext) -> Self {
        KnowledgeQa {
            ctx,
            strategy: RetrievalStrategy::Hybrid,
            top_k: 4,
            prompt_budget: 1024,
            rerank: false,
        }
    }

    /// Enable the second-stage lexical reranker, builder style.
    pub fn with_rerank(mut self) -> Self {
        self.rerank = true;
        self
    }

    /// Override the retrieval strategy, builder style.
    pub fn with_strategy(mut self, strategy: RetrievalStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Add a document to the knowledge base.
    pub fn ingest(&self, id: &str, text: &str) -> usize {
        self.ctx.kb.write().add_text(id, text)
    }

    /// Answer a question from the knowledge base.
    pub fn ask(&self, question: &str) -> Result<KbqaReply, AppError> {
        self.ask_under(question, &Span::noop())
    }

    /// Answer under a caller span: records an `app.kbqa` span (see
    /// [`dbgpt_obs::Obs::enter`]) with the RAG retrieval and model
    /// completion joined as children.
    pub fn ask_under(&self, question: &str, parent: &Span) -> Result<KbqaReply, AppError> {
        let span = self.ctx.obs.enter(parent, "app.kbqa");
        let obs = span.handle();
        obs.counter("app.kbqa.requests", 1);
        let res = self.ask_inner(question, &span);
        match &res {
            Ok(r) => {
                span.attr("outcome", "ok");
                span.attr("chunks", r.chunks_used);
            }
            Err(_) => {
                span.attr("outcome", "error");
                obs.counter("app.kbqa.errors", 1);
            }
        }
        span.end(span.tick());
        res
    }

    fn ask_inner(&self, question: &str, span: &Span) -> Result<KbqaReply, AppError> {
        let question = question.trim();
        if question.is_empty() {
            return Err(AppError::BadInput("empty question".into()));
        }
        let kb = self.ctx.kb.read();
        let hits = if self.rerank {
            kb.retrieve_reranked_under(question, self.top_k, self.strategy, span)
        } else {
            kb.retrieve_under(question, self.top_k, self.strategy, span)
        };
        drop(kb);
        let mut sources: Vec<String> = Vec::new();
        for h in &hits {
            if !sources.contains(&h.chunk.document_id) {
                sources.push(h.chunk.document_id.clone());
            }
        }
        let (prompt, chunks_used) = IclBuilder::new(self.prompt_budget).build(question, &hits)?;
        let completion = self
            .ctx
            .llm
            .complete_under(&prompt, &GenerationParams::default(), span)
            .map_err(|e| AppError::Llm(e.to_string()))?;
        Ok(KbqaReply {
            answer: completion.text,
            sources,
            chunks_used,
        })
    }
}

impl std::fmt::Debug for KnowledgeQa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnowledgeQa")
            .field("strategy", &self.strategy.name())
            .field("top_k", &self.top_k)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> KnowledgeQa {
        let qa = KnowledgeQa::new(AppContext::local_default());
        qa.ingest(
            "awel-manual",
            "AWEL is the Agentic Workflow Expression Language of DB-GPT. \
             It arranges agents as operators in a DAG.",
        );
        qa.ingest(
            "smmf-manual",
            "SMMF keeps model serving private. \
             All interactions among users, models and data happen locally.",
        );
        qa.ingest(
            "trivia",
            "The moon orbits the earth. Cheese is made from milk.",
        );
        qa
    }

    #[test]
    fn answers_from_the_right_document() {
        let r = app().ask("what arranges agents as operators in a DAG?").unwrap();
        assert!(r.answer.contains("AWEL") || r.answer.contains("operators"), "{}", r.answer);
        assert_eq!(r.sources[0], "awel-manual");
        assert!(r.chunks_used > 0);
    }

    #[test]
    fn privacy_question_hits_smmf_doc() {
        let r = app().ask("how is model serving kept private?").unwrap();
        assert!(r.sources.contains(&"smmf-manual".to_string()));
        assert!(r.answer.to_lowercase().contains("private") || r.answer.contains("locally"));
    }

    #[test]
    fn unanswerable_question_degrades_gracefully() {
        let r = app().ask("what is the airspeed of an unladen swallow?").unwrap();
        assert!(
            r.answer.contains("could not find") || !r.answer.is_empty(),
            "{}",
            r.answer
        );
    }

    #[test]
    fn every_strategy_works_end_to_end() {
        for &s in RetrievalStrategy::ALL {
            let qa = app().with_strategy(s);
            let r = qa.ask("what language arranges agents?").unwrap();
            assert!(!r.answer.is_empty(), "strategy {}", s.name());
        }
    }

    #[test]
    fn reranked_retrieval_path_works() {
        let qa = app().with_rerank();
        let r = qa.ask("what arranges agents as operators in a DAG?").unwrap();
        assert!(r.chunks_used > 0);
        assert_eq!(r.sources[0], "awel-manual");
    }

    #[test]
    fn empty_question_rejected() {
        assert!(app().ask("  ").is_err());
    }

    #[test]
    fn empty_kb_still_answers_honestly() {
        let qa = KnowledgeQa::new(AppContext::local_default());
        let r = qa.ask("anything at all?").unwrap();
        assert_eq!(r.chunks_used, 0);
        assert!(r.sources.is_empty());
    }
}
