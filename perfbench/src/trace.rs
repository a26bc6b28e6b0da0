//! The traced run: per-layer time, measured from outside the program.
//!
//! Requests are replayed in-process on one thread. Each one is first
//! served by `Server::handle` (timed and judged), then decomposed: the
//! benchmark calls each layer's public function the way the app does and
//! times every call. The layers' share of the `Server::handle` time is the
//! trace coverage; the rest is the apps' own glue.

use std::time::{Duration, Instant};

use dbgpt::apps::chat2viz::extract_chart_type;
use dbgpt::apps::GenerativeAnalyzer;
use dbgpt::llm::catalog::builtin_model;
use dbgpt::llm::{GenerationParams, SharedModel};
use dbgpt::rag::{IclBuilder, RetrievalStrategy};
use dbgpt::server::{decode_frame, encode_frame, Request, Response};
use dbgpt::text2sql::sql_to_text;
use dbgpt::vis::{ascii, chart::ChartType, spec_from_result, svg};

use crate::drive::{Client, Log};
use crate::stack::Stack;
use crate::stats::sum;
use crate::workload::{Expect, Kind, Op, KBQA_TOP_K};

/// The KBQA app's prompt budget, in tokens.
const KBQA_PROMPT_BUDGET: usize = 1024;

/// Samples of every timed call, µs unless noted.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// `Server::handle`, the whole in-process request.
    pub handle: Vec<f64>,
    /// Request and response encode + decode.
    pub codec: Vec<f64>,
    /// `SessionManager::get` + two `append`s.
    pub session: Vec<f64>,
    /// `Text2SqlModel::generate_sql`.
    pub generate: Vec<f64>,
    /// `sql_to_text`.
    pub explain: Vec<f64>,
    /// `AppContext::schema_ddl`.
    pub schema_ddl: Vec<f64>,
    /// Every `Engine::execute`.
    pub execute: Vec<f64>,
    /// `Engine::execute` of SELECTs.
    pub select: Vec<f64>,
    /// `Engine::execute` of OLTP point reads.
    pub point_read: Vec<f64>,
    /// `Engine::execute` of INSERT/UPDATE.
    pub write: Vec<f64>,
    /// Rows returned per SELECT (count).
    pub rows: Vec<f64>,
    /// `KnowledgeBase::retrieve`.
    pub retrieve: Vec<f64>,
    /// `IclBuilder::build`.
    pub icl: Vec<f64>,
    /// KBQA questions whose target document was retrieved.
    pub hits: usize,
    /// `ApiServer::chat`.
    pub smmf_chat: Vec<f64>,
    /// The model's `generate`, called directly on the same prompt.
    pub llm_generate: Vec<f64>,
    /// Prompt plus completion tokens per model call (count).
    pub tokens: Vec<f64>,
    /// `GenerativeAnalyzer::analyze`.
    pub analyze: Vec<f64>,
    /// `spec_from_result` + SVG and ASCII rendering.
    pub render: Vec<f64>,
}

fn timed<T>(into: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    into.push(t.elapsed().as_secs_f64() * 1e6);
    out
}

impl Breakdown {
    /// Total µs per layer, in table order. The model sits inside SMMF, so
    /// `llm` is shown but not added to the coverage.
    pub fn layers(&self) -> Vec<(&'static str, f64, bool)> {
        vec![
            ("server", sum(&self.session), true),
            ("text2sql", sum(&self.generate) + sum(&self.explain), true),
            (
                "sqlengine",
                sum(&self.schema_ddl) + sum(&self.execute),
                true,
            ),
            ("rag", sum(&self.retrieve) + sum(&self.icl), true),
            ("smmf", sum(&self.smmf_chat), true),
            ("llm (inside smmf)", sum(&self.llm_generate), false),
            ("agents", sum(&self.analyze), true),
            ("vis", sum(&self.render), true),
        ]
    }

    /// µs the timed layer calls cover.
    pub fn covered(&self) -> f64 {
        self.layers().iter().filter(|l| l.2).map(|l| l.1).sum()
    }

    /// Share of `Server::handle` time the timed calls cover.
    pub fn coverage(&self) -> f64 {
        let total = sum(&self.handle);
        if total > 0.0 {
            self.covered() / total
        } else {
            0.0
        }
    }

    /// Mean µs per request that no timed call covers: the apps' own glue.
    pub fn apps_self_us(&self) -> f64 {
        if self.handle.is_empty() {
            return 0.0;
        }
        (sum(&self.handle) - self.covered()) / self.handle.len() as f64
    }

    /// The per-layer table: time, µs per request, share of in-process
    /// request time; then the coverage and the top layer.
    pub fn table(&self) -> String {
        let total = sum(&self.handle);
        let n = self.handle.len().max(1) as f64;
        let mut rows = self.layers();
        rows.push(("apps (self)", (total - self.covered()).max(0.0), true));
        let mut out = format!(
            "{:<20} {:>10} {:>10} {:>7}\n",
            "layer", "total_ms", "us/req", "share"
        );
        for (name, us, _) in &rows {
            out.push_str(&format!(
                "{name:<20} {:>10.1} {:>10.1} {:>6.1}%\n",
                us / 1e3,
                us / n,
                if total > 0.0 { 100.0 * us / total } else { 0.0 }
            ));
        }
        let top = rows
            .iter()
            .filter(|r| r.2)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("none", |r| r.0);
        out.push_str(&format!(
            "requests {} | in-process total {:.1} ms | trace.coverage {:.3} | top layer: {top}\n",
            self.handle.len(),
            total / 1e3,
            self.coverage()
        ));
        out
    }
}

/// Replays requests on one thread and times each layer call.
pub struct Tracer<'a> {
    stack: &'a Stack,
    analyzer: GenerativeAnalyzer,
    model: SharedModel,
    /// A session per client that mirrors the served one, so the
    /// decomposition's appends do not grow the history `handle` reads.
    shadows: Vec<(String, String)>,
    /// What the replay measured.
    pub breakdown: Breakdown,
    /// Judgement of the served replies.
    pub log: Log,
}

impl<'a> Tracer<'a> {
    /// A tracer over a running stack.
    pub fn new(stack: &'a Stack, clients: usize) -> Tracer<'a> {
        let model = &stack.db.config().chat_model;
        Tracer {
            stack,
            analyzer: GenerativeAnalyzer::new(stack.db.context().clone()),
            model: builtin_model(model).expect("the configured chat model is built in"),
            shadows: vec![(String::new(), String::new()); clients],
            breakdown: Breakdown::default(),
            log: Log::default(),
        }
    }

    /// Replay the clients' streams round-robin until `window` has passed.
    pub fn replay(&mut self, clients: &mut [Client], window: Duration) {
        let end = Instant::now() + window;
        let server = &self.stack.server;
        while Instant::now() < end {
            for (i, client) in clients.iter_mut().enumerate() {
                let (op, req) = client.next_request(server);
                let t = Instant::now();
                let resp = server.handle(&req);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                self.breakdown.handle.push(ms * 1e3);
                let shadow = self.shadow(i, &req.session);
                self.decompose(&op, &req, &resp, &shadow);
                self.log.record(&op, Ok(resp), ms, true);
            }
        }
    }

    fn shadow(&mut self, client: usize, session: &str) -> String {
        let (served, shadow) = &mut self.shadows[client];
        if served != session {
            if !shadow.is_empty() {
                let _ = self.stack.server.sessions().close(shadow);
            }
            *served = session.to_string();
            *shadow = self.stack.server.open_session("chat");
        }
        shadow.clone()
    }

    fn decompose(&mut self, op: &Op, req: &Request, resp: &Response, shadow: &str) {
        let b = &mut self.breakdown;
        let ctx = self.stack.db.context();
        let sessions = self.stack.server.sessions();
        timed(&mut b.session, || {
            let history = sessions.get(shadow).expect("shadow session is open");
            let reply = resp
                .rendered
                .clone()
                .unwrap_or_else(|| resp.content.to_string());
            sessions
                .append(shadow, dbgpt::llm::ChatMessage::user(req.input.clone()))
                .and_then(|_| sessions.append(shadow, dbgpt::llm::ChatMessage::assistant(reply)))
                .expect("shadow session is open");
            history
        });
        timed(&mut b.codec, || {
            let (r, _) = decode_frame::<Request>(&encode_frame(req)).expect("request frame");
            let (s, _) = decode_frame::<Response>(&encode_frame(resp)).expect("response frame");
            (r, s)
        });
        let input = req.input.trim();
        match op.app {
            "chat2data" | "chat2viz" => {
                let (chart, question) = if op.app == "chat2viz" {
                    let (t, q) = extract_chart_type(input);
                    (Some(t.unwrap_or(ChartType::Bar)), q)
                } else {
                    (None, input.to_string())
                };
                let ddl = timed(&mut b.schema_ddl, || ctx.schema_ddl());
                let Ok(sql) = timed(&mut b.generate, || ctx.t2s.generate_sql(&ddl, &question))
                else {
                    return;
                };
                let Ok(result) = timed(&mut b.execute, || ctx.engine.write().execute(&sql)) else {
                    return;
                };
                b.select.push(*b.execute.last().expect("just timed"));
                b.rows.push(result.rows.len() as f64);
                if let Some(chart) = chart {
                    timed(&mut b.render, || {
                        spec_from_result(&result, chart, input)
                            .map(|spec| (svg::render(&spec), ascii::render(&spec)))
                    })
                    .ok();
                }
            }
            "analysis" => {
                let analyzer = &mut self.analyzer;
                timed(&mut b.analyze, || analyzer.analyze(input)).ok();
            }
            "kbqa" => {
                let hits = timed(&mut b.retrieve, || {
                    ctx.kb
                        .read()
                        .retrieve(input, KBQA_TOP_K, RetrievalStrategy::Hybrid)
                });
                if let Expect::Source(doc) = &op.expect {
                    b.hits += usize::from(hits.iter().any(|h| &h.chunk.document_id == doc));
                }
                let Ok((prompt, _)) = timed(&mut b.icl, || {
                    IclBuilder::new(KBQA_PROMPT_BUDGET).build(input, &hits)
                }) else {
                    return;
                };
                let params = GenerationParams::default();
                let model = &self.stack.db.config().chat_model;
                let smmf = self.stack.db.smmf();
                if let Ok(c) = timed(&mut b.smmf_chat, || smmf.chat(model, &prompt, &params)) {
                    b.tokens
                        .push((c.usage.prompt_tokens + c.usage.completion_tokens) as f64);
                }
                timed(&mut b.llm_generate, || {
                    self.model.generate(&prompt, &params)
                })
                .ok();
            }
            "chat2db" => {
                timed(&mut b.explain, || sql_to_text(input)).ok();
                let Ok(result) = timed(&mut b.execute, || ctx.engine.write().execute(input)) else {
                    return;
                };
                let us = *b.execute.last().expect("just timed");
                match op.kind {
                    Kind::Write => b.write.push(us),
                    Kind::Read => {
                        b.select.push(us);
                        b.point_read.push(us);
                        b.rows.push(result.rows.len() as f64);
                    }
                }
            }
            other => unreachable!("no workload sends to {other}"),
        }
    }
}
