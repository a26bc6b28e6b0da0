//! The Text-to-SQL model and the fine-tuning hub (DB-GPT-Hub analog).
//!
//! A [`Text2SqlModel`] is the generation grammar plus a linker lexicon.
//! `base()` has an empty lexicon; [`FineTuner::fit`] learns one from
//! training pairs by aligning unexplained question words with the schema
//! terms of the gold SQL — the same *workflow* as LoRA fine-tuning on
//! question/SQL pairs (train on pairs → better model → deploy via SMMF),
//! with the learned parameters being lexicon weights instead of adapter
//! matrices.

use std::collections::HashSet;

use dbgpt_obs::Span;

use crate::dataset::{BenchmarkDb, Example};
use crate::error::Text2SqlError;
use crate::generator::SqlGenerator;
use crate::linker::{Lexicon, SchemaIndex, SchemaLinker};

/// A deployable Text-to-SQL model.
#[derive(Debug, Clone)]
pub struct Text2SqlModel {
    name: String,
    generator: SqlGenerator,
}

impl Text2SqlModel {
    /// The base (un-tuned) model.
    pub fn base() -> Self {
        Text2SqlModel {
            name: "t2s-base".into(),
            generator: SqlGenerator::new(),
        }
    }

    /// A fine-tuned model carrying a learned lexicon.
    pub fn fine_tuned(name: impl Into<String>, lexicon: Lexicon) -> Self {
        Text2SqlModel {
            name: name.into(),
            generator: SqlGenerator::with_linker(SchemaLinker::with_lexicon(lexicon)),
        }
    }

    /// Model name (used as the SMMF deployment name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The learned lexicon.
    pub fn lexicon(&self) -> &Lexicon {
        self.generator.linker().lexicon()
    }

    /// Generate SQL for a question given schema DDL.
    pub fn generate_sql(&self, ddl: &str, question: &str) -> Result<String, Text2SqlError> {
        self.generate_sql_under(ddl, question, &Span::noop())
    }

    /// [`Text2SqlModel::generate_sql`] under a caller span: records a
    /// `t2s.generate` child of `parent` (with `t2s.schema` /
    /// `t2s.link_generate` stage children and `t2s.requests` /
    /// `t2s.errors` counters).
    pub fn generate_sql_under(
        &self,
        ddl: &str,
        question: &str,
        parent: &Span,
    ) -> Result<String, Text2SqlError> {
        let obs = parent.handle();
        let span = parent.child("t2s.generate", parent.tick());
        span.attr("model", &self.name);
        obs.counter("t2s.requests", 1);
        let stage = span.child("t2s.schema", span.tick());
        let schema = SchemaIndex::from_ddl(ddl);
        if schema.is_err() {
            stage.attr("outcome", "error");
        }
        stage.end(span.tick());
        let res = schema.and_then(|schema| {
            let stage = span.child("t2s.link_generate", span.tick());
            let res = self.generator.generate(&schema, question);
            stage.end(span.tick());
            res
        });
        match &res {
            Ok(_) => span.attr("outcome", "ok"),
            Err(_) => {
                span.attr("outcome", "error");
                obs.counter("t2s.errors", 1);
            }
        }
        span.end(span.tick());
        res
    }

    /// Generate against a pre-parsed schema (hot path for evaluation).
    pub fn generate_with_schema(
        &self,
        schema: &SchemaIndex,
        question: &str,
    ) -> Result<String, Text2SqlError> {
        self.generator.generate(schema, question)
    }
}

/// Words that carry intent, not content — never aligned by the tuner.
const INTENT_WORDS: &[&str] = &[
    "how", "many", "what", "which", "total", "sum", "average", "mean", "list", "show", "display",
    "top", "highest", "lowest", "per", "each", "with", "whose", "where", "greater", "less",
    "than", "is", "are", "there", "the", "a", "an", "of", "all", "by", "for", "in", "and",
    "distinct", "different", "unique", "not", "between",
];

/// The fine-tuner (see module docs).
#[derive(Debug, Clone, Default)]
pub struct FineTuner;

impl FineTuner {
    /// Create a tuner.
    pub fn new() -> Self {
        FineTuner
    }

    /// Learn a lexicon from training pairs.
    ///
    /// Alignment is IBM-Model-1 flavoured expectation maximisation over
    /// three passes: pass 1 distributes each unexplained question word
    /// uniformly over the gold SQL's unexplained schema terms; later
    /// passes first *consume* word/term pairs the previous lexicon already
    /// explains dominantly (e.g. "staff"→`employees`, pinned by COUNT
    /// questions whose gold mentions only the table), so residual words
    /// concentrate on residual terms ("pay"→`salary`).
    pub fn fit(&self, databases: &[BenchmarkDb], train: &[Example]) -> Lexicon {
        let base = SchemaLinker::new();
        // Pre-parse schemas and pre-extract per-example alignment inputs.
        let schemas: Vec<Option<SchemaIndex>> = databases
            .iter()
            .map(|d| SchemaIndex::from_ddl(&d.schema_ddl()).ok())
            .collect();
        let mut cases: Vec<(Vec<String>, Vec<String>)> = Vec::new();
        for ex in train {
            let Some(Some(schema)) = schemas.get(ex.db) else {
                continue;
            };
            let schema_terms: HashSet<String> = schema
                .tables
                .iter()
                .flat_map(|t| std::iter::once(t.name.clone()).chain(t.columns.iter().cloned()))
                .collect();
            let gold_terms: Vec<String> = sql_identifiers(&ex.gold_sql)
                .into_iter()
                .filter(|t| schema_terms.contains(t))
                .collect();
            if gold_terms.is_empty() {
                continue;
            }
            let q_words: Vec<String> = ex
                .question
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .filter(|w| !w.is_empty())
                .map(|w| w.to_lowercase())
                .filter(|w| !INTENT_WORDS.contains(&w.as_str()))
                .filter(|w| w.parse::<f64>().is_err())
                .collect();
            let words: Vec<String> = q_words
                .iter()
                .filter(|w| gold_terms.iter().all(|t| base.word_score(w, t) == 0.0))
                .cloned()
                .collect();
            let terms: Vec<String> = gold_terms
                .iter()
                .filter(|t| q_words.iter().all(|w| base.word_score(w, t) == 0.0))
                .cloned()
                .collect();
            if !words.is_empty() && !terms.is_empty() {
                cases.push((words, terms));
            }
        }

        let mut lexicon = Lexicon::new();
        for _pass in 0..3 {
            let mut next = Lexicon::new();
            for (words, terms) in &cases {
                // Consume pairs the previous pass explains dominantly.
                let mut remaining_terms: Vec<&String> = terms.iter().collect();
                let mut remaining_words: Vec<&String> = Vec::new();
                for w in words {
                    match dominant(&lexicon, w) {
                        Some(t) if remaining_terms.iter().any(|rt| **rt == t) => {
                            remaining_terms.retain(|rt| **rt != t);
                            next.learn(w, &t, 1.0);
                        }
                        _ => remaining_words.push(w),
                    }
                }
                if remaining_words.is_empty() || remaining_terms.is_empty() {
                    continue;
                }
                let weight = 1.0 / remaining_terms.len() as f64;
                for w in &remaining_words {
                    for t in &remaining_terms {
                        next.learn(w, t, weight);
                    }
                }
            }
            lexicon = next;
        }
        self.prune(lexicon)
    }

    /// Keep only each word's dominant association(s): entries within 60% of
    /// the word's best weight. Cuts the co-occurrence noise that uniform
    /// alignment introduces.
    fn prune(&self, lexicon: Lexicon) -> Lexicon {
        use std::collections::HashMap;
        let mut best_per_word: HashMap<&str, f64> = HashMap::new();
        for (word, _, weight) in lexicon.iter() {
            let e = best_per_word.entry(word).or_insert(0.0);
            if weight > *e {
                *e = weight;
            }
        }
        let mut pruned = Lexicon::new();
        for (word, term, weight) in lexicon.iter() {
            if weight >= best_per_word[word] * 0.6 {
                pruned.learn(word, term, weight);
            }
        }
        pruned
    }
}

/// The dominant association of `word` in `lexicon`: its best term, when
/// clearly ahead of the runner-up (ratio test).
fn dominant(lexicon: &Lexicon, word: &str) -> Option<String> {
    let mut weights: Vec<(&str, f64)> = lexicon
        .iter()
        .filter(|(w, _, _)| *w == word)
        .map(|(_, t, wgt)| (t, wgt))
        .collect();
    weights.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(b.0)));
    match weights.as_slice() {
        [] => None,
        [(t, _)] => Some(t.to_string()),
        [(t1, w1), (_, w2), ..] => (*w1 > 1.25 * w2).then(|| t1.to_string()),
    }
}

/// Lowercase identifiers appearing in a SQL string.
fn sql_identifiers(sql: &str) -> Vec<String> {
    sql.split(|c: char| !c.is_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty())
        .map(|w| w.to_lowercase())
        .filter(|w| {
            !matches!(
                w.as_str(),
                "select" | "from" | "where" | "group" | "by" | "order" | "limit" | "sum"
                    | "avg" | "count" | "min" | "max" | "desc" | "asc" | "and" | "or"
            )
        })
        .filter(|w| w.parse::<f64>().is_err())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::spider_like;

    #[test]
    fn base_model_handles_canonical_questions() {
        let b = spider_like(11);
        let base = Text2SqlModel::base();
        let sql = base
            .generate_sql(&b.databases[0].schema_ddl(), "How many orders are there?")
            .unwrap();
        assert_eq!(sql, "SELECT COUNT(*) FROM orders;");
    }

    #[test]
    fn base_model_fails_on_paraphrases() {
        let b = spider_like(11);
        let base = Text2SqlModel::base();
        assert!(base
            .generate_sql(&b.databases[0].schema_ddl(), "How many purchases are there?")
            .is_err());
    }

    #[test]
    fn fine_tuner_learns_paraphrase_alignments() {
        let b = spider_like(11);
        let lexicon = FineTuner::new().fit(&b.databases, &b.train);
        assert!(!lexicon.is_empty());
        // The headline alignments must be dominant.
        assert_eq!(lexicon.best("revenue").unwrap().0, "amount");
        assert_eq!(lexicon.best("purchases").unwrap().0, "orders");
        assert_eq!(lexicon.best("staff").unwrap().0, "employees");
        assert_eq!(lexicon.best("pay").unwrap().0, "salary");
        assert_eq!(lexicon.best("checkouts").unwrap().0, "loans");
    }

    #[test]
    fn fine_tuned_model_resolves_paraphrases() {
        let b = spider_like(11);
        let lexicon = FineTuner::new().fit(&b.databases, &b.train);
        let tuned = Text2SqlModel::fine_tuned("t2s-tuned", lexicon);
        let ddl = b.databases[0].schema_ddl();
        assert_eq!(
            tuned.generate_sql(&ddl, "How many purchases are there?").unwrap(),
            "SELECT COUNT(*) FROM orders;"
        );
        assert_eq!(
            tuned
                .generate_sql(&ddl, "What is the total revenue of purchases?")
                .unwrap(),
            "SELECT SUM(amount) FROM orders;"
        );
    }

    #[test]
    fn tuned_model_does_not_regress_canonical() {
        let b = spider_like(11);
        let lexicon = FineTuner::new().fit(&b.databases, &b.train);
        let tuned = Text2SqlModel::fine_tuned("t2s-tuned", lexicon);
        let base = Text2SqlModel::base();
        let ddl = b.databases[0].schema_ddl();
        for q in [
            "How many orders are there?",
            "What is the total amount of orders?",
            "What is the total amount per category of orders?",
        ] {
            assert_eq!(
                base.generate_sql(&ddl, q).unwrap(),
                tuned.generate_sql(&ddl, q).unwrap(),
                "regression on: {q}"
            );
        }
    }

    #[test]
    fn sql_identifiers_extraction() {
        let ids = sql_identifiers("SELECT category, SUM(amount) FROM orders GROUP BY category;");
        assert!(ids.contains(&"category".to_string()));
        assert!(ids.contains(&"amount".to_string()));
        assert!(ids.contains(&"orders".to_string()));
        assert!(!ids.contains(&"select".to_string()));
        assert!(!ids.contains(&"sum".to_string()));
    }

    #[test]
    fn model_names() {
        assert_eq!(Text2SqlModel::base().name(), "t2s-base");
        assert_eq!(
            Text2SqlModel::fine_tuned("custom", Lexicon::new()).name(),
            "custom"
        );
    }
}
