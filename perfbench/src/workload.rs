//! The three workloads: the data each one loads, the request stream each
//! client sends, and the oracle every reply is checked against.
//!
//! Everything here is derived from the seed alone. The oracle is computed
//! from the generated rows and documents, never from a run of the system.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde_json::Value;

use crate::stats::Fnv;

/// Client connections of the closed loop: one per hardware thread of the
/// two-core host the benchmark was sized on.
pub const CLIENTS: usize = 2;

/// Turns per chat session. Sessions are bounded because the server clones
/// a session's whole history on every request.
pub const TURNS_PER_SESSION: usize = 8;

/// Rows of the `orders` fact table in `chat2data_analytics`.
pub const ORDERS: usize = 20_000;
/// Users, and so points in the analysis' per-user chart. The reply
/// carrying that chart is parsed by the client, whose JSON decoder is
/// quadratic in string bytes; 100 users keep that cost near the SQL cost.
const USERS: usize = 100;
const PRODUCTS: usize = 100;

/// Documents in the `kbqa_retrieval` corpus: past the 4096-chunk point
/// where the knowledge base builds its HNSW index, so set-up pays for it.
pub const DOCUMENTS: usize = 5_000;

/// Rows of the `accounts` table in `chat2db_oltp`.
pub const ACCOUNTS: usize = 20_000;

/// KBQA retrieval depth (the app's default).
pub const KBQA_TOP_K: usize = 4;

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Chat2Data questions, charts and analyses over the sales schema.
    Analytics,
    /// Knowledge-base QA over a synthetic corpus.
    Kbqa,
    /// Raw-SQL point reads and writes through Chat2DB.
    Oltp,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Analytics, Workload::Kbqa, Workload::Oltp];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Analytics => "chat2data_analytics",
            Workload::Kbqa => "kbqa_retrieval",
            Workload::Oltp => "chat2db_oltp",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for one seed and stream.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf-distributed ranks `0..n` (rank 0 hottest).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Whether a request changes stored data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reads only.
    Read,
    /// Inserts or updates rows.
    Write,
}

/// What the oracle expects of a reply's content.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Chat2Data: one numeric cell.
    Scalar(f64),
    /// Chat2Data: one text cell.
    Text(String),
    /// Chat2Data: a breakdown, group label column → value.
    Groups {
        /// The grouping column.
        label: &'static str,
        /// Value per group.
        values: BTreeMap<String, f64>,
    },
    /// Chat2Viz: chart points, label → value.
    Chart(BTreeMap<String, f64>),
    /// Analysis: for each chart, a fragment of its SQL and its points.
    Analysis(Vec<(&'static str, BTreeMap<String, f64>)>),
    /// Chat2DB: a one-cell result table.
    Cell(i64),
    /// Chat2DB: rows affected by DML.
    Affected(usize),
    /// KBQA: this document should be among the sources.
    Source(String),
}

/// One request of a stream, with its oracle.
#[derive(Debug, Clone)]
pub struct Op {
    /// Target app.
    pub app: &'static str,
    /// The user's turn.
    pub input: String,
    /// Read or write.
    pub kind: Kind,
    /// Expected reply.
    pub expect: Expect,
}

/// The oracle's judgement of one reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Matches the oracle.
    Right,
    /// A KBQA answer that does not cite the target document: a retrieval
    /// miss, which lowers accuracy but is not a wrong answer.
    Miss,
    /// Contradicts the oracle.
    Wrong(String),
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn num(v: &Value) -> Option<f64> {
    v.as_f64().or_else(|| v.as_str()?.parse().ok())
}

fn same_points(got: &BTreeMap<String, f64>, want: &BTreeMap<String, f64>) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|((gk, gv), (wk, wv))| gk == wk && close(*gv, *wv))
}

/// `[{label, value}, …]` chart points as a map.
fn chart_points(spec: &Value) -> Option<BTreeMap<String, f64>> {
    spec.get("points")?
        .as_array()?
        .iter()
        .map(|p| Some((p.get("label")?.as_str()?.to_string(), num(p.get("value")?)?)))
        .collect()
}

/// The single data cell of a one-row, one-column Chat2Data reply.
fn single_cell(content: &Value) -> Option<&Value> {
    match content.get("data")?.as_array()?.as_slice() {
        [row] => match row.as_object()?.values().collect::<Vec<_>>().as_slice() {
            [cell] => Some(cell),
            _ => None,
        },
        _ => None,
    }
}

/// The value cell of a Chat2DB ASCII table with one row and one column.
fn table_cell(table: &str) -> Option<&str> {
    let rows: Vec<&str> = table.lines().filter(|l| l.starts_with('|')).collect();
    match rows.as_slice() {
        [_header, row] => Some(row.trim_matches('|').trim()),
        _ => None,
    }
}

/// Judge a reply's content against the oracle.
pub fn check(expect: &Expect, content: &Value) -> Verdict {
    let ok = match expect {
        Expect::Scalar(want) => single_cell(content)
            .and_then(num)
            .is_some_and(|got| close(got, *want)),
        Expect::Text(want) => single_cell(content).and_then(Value::as_str) == Some(want),
        Expect::Groups { label, values } => content
            .get("data")
            .and_then(Value::as_array)
            .and_then(|rows| {
                rows.iter()
                    .map(|row| {
                        let obj = row.as_object()?;
                        let key = obj.get(*label)?.as_str()?.to_string();
                        let (_, v) = obj.iter().find(|(k, _)| k.as_str() != *label)?;
                        Some((key, num(v)?))
                    })
                    .collect::<Option<BTreeMap<_, _>>>()
            })
            .is_some_and(|got| same_points(&got, values)),
        Expect::Chart(want) => content
            .get("spec")
            .and_then(chart_points)
            .is_some_and(|got| same_points(&got, want)),
        Expect::Analysis(charts) => {
            let sqls = content.get("chart_sql").and_then(Value::as_array);
            let specs = content.get("charts").and_then(Value::as_array);
            match (sqls, specs) {
                (Some(sqls), Some(specs)) if sqls.len() == charts.len() => {
                    charts.iter().all(|(fragment, want)| {
                        sqls.iter()
                            .position(|s| s.as_str().is_some_and(|s| s.contains(fragment)))
                            .and_then(|i| chart_points(specs.get(i)?))
                            .is_some_and(|got| same_points(&got, want))
                    })
                }
                _ => false,
            }
        }
        Expect::Cell(want) => {
            content.get("rows").and_then(Value::as_u64) == Some(1)
                && content
                    .get("table")
                    .and_then(Value::as_str)
                    .and_then(table_cell)
                    .and_then(|c| c.parse::<i64>().ok())
                    == Some(*want)
        }
        Expect::Affected(n) => content.get("rows").and_then(Value::as_u64) == Some(*n as u64),
        Expect::Source(doc) => {
            let sources = content.get("sources").and_then(Value::as_array);
            let answered = content
                .get("answer")
                .and_then(Value::as_str)
                .is_some_and(|a| !a.is_empty());
            let Some(sources) = sources.filter(|s| s.len() <= KBQA_TOP_K && answered) else {
                return Verdict::Wrong(format!("malformed KBQA reply: {content}"));
            };
            return if sources.iter().any(|s| s.as_str() == Some(doc)) {
                Verdict::Right
            } else {
                Verdict::Miss
            };
        }
    };
    if ok {
        Verdict::Right
    } else {
        let shown: String = content.to_string().chars().take(300).collect();
        Verdict::Wrong(format!("expected {expect:?}, got {shown}"))
    }
}

// ---------------------------------------------------------------------------
// chat2data_analytics: the paper's Fig. 3 sales schema.

const CATEGORIES: &[&str] = &["books", "tech", "food", "toys", "garden"];
const MONTHS: &[&str] = &[
    "jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec",
];
const CITIES: &[&str] = &[
    "berlin", "paris", "tokyo", "lima", "oslo", "cairo", "delhi", "quito", "seoul", "perth",
];

/// The analysis goal of the paper's demo (three charts).
pub const ANALYSIS_GOAL: &str =
    "Build sales reports and analyze user orders from at least three distinct dimensions";

/// One row of `orders`.
#[derive(Debug, Clone)]
pub struct Order {
    /// `user_id`.
    pub user: usize,
    /// `amount`, a multiple of 0.25 so every sum is exact in `f64`.
    pub amount: f64,
    /// `category`.
    pub category: &'static str,
    /// `month`.
    pub month: &'static str,
}

/// The generated sales database.
#[derive(Debug, Clone)]
pub struct Sales {
    /// `users`: (name, city, age), id = index + 1.
    pub users: Vec<(String, &'static str, i64)>,
    /// `products`: (name, price, stock), id = index + 1.
    pub products: Vec<(String, f64, i64)>,
    /// `orders`, id = index + 1.
    pub orders: Vec<Order>,
}

impl Sales {
    /// Generate `orders` orders over the fixed user and product tables.
    pub fn generate(seed: u64, orders: usize) -> Sales {
        let mut rng = Rng::new(seed, 1);
        let users = (1..=USERS)
            .map(|id| {
                (
                    format!("user{id:04}"),
                    *rng.pick(CITIES),
                    18 + rng.below(63) as i64,
                )
            })
            .collect();
        // Distinct prices, so the highest and lowest price are unique.
        let mut ranks: Vec<usize> = (1..=PRODUCTS).collect();
        rng.shuffle(&mut ranks);
        let products = ranks
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                (
                    format!("product{:03}", i + 1),
                    r as f64 * 12.5,
                    rng.below(1000) as i64,
                )
            })
            .collect();
        let orders = (0..orders)
            .map(|_| {
                let user = 1 + rng.below(USERS);
                let amount = (4 + rng.below(7997)) as f64 * 0.25;
                let category = *rng.pick(CATEGORIES);
                let month = *rng.pick(MONTHS);
                Order {
                    user,
                    amount,
                    category,
                    month,
                }
            })
            .collect();
        Sales {
            users,
            products,
            orders,
        }
    }

    /// DDL plus INSERT batches that load this database.
    pub fn setup_sql(&self) -> Vec<String> {
        let mut sql = vec![
            "CREATE TABLE orders (id INT, user_id INT, product_id INT, amount FLOAT, category TEXT, month TEXT)".to_string(),
            "CREATE TABLE users (id INT, name TEXT, city TEXT, age INT)".to_string(),
            "CREATE TABLE products (id INT, name TEXT, price FLOAT, stock INT)".to_string(),
            FEEDBACK_DDL.to_string(),
        ];
        let mut rng = Rng::new(0, 2);
        let orders: Vec<String> = self
            .orders
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let product = 1 + rng.below(PRODUCTS);
                format!(
                    "({}, {}, {product}, {:.2}, '{}', '{}')",
                    i + 1,
                    o.user,
                    o.amount,
                    o.category,
                    o.month
                )
            })
            .collect();
        let users: Vec<String> = self
            .users
            .iter()
            .enumerate()
            .map(|(i, (name, city, age))| format!("({}, '{name}', '{city}', {age})", i + 1))
            .collect();
        let products: Vec<String> = self
            .products
            .iter()
            .enumerate()
            .map(|(i, (name, price, stock))| format!("({}, '{name}', {price:.2}, {stock})", i + 1))
            .collect();
        sql.extend(insert_batches("orders", &orders));
        sql.extend(insert_batches("users", &users));
        sql.extend(insert_batches("products", &products));
        sql
    }

    fn order_sums(&self, key: impl Fn(&Order) -> String) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        for o in &self.orders {
            *m.entry(key(o)).or_insert(0.0) += o.amount;
        }
        m
    }

    fn order_counts(&self, key: impl Fn(&Order) -> String) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        for o in &self.orders {
            *m.entry(key(o)).or_insert(0.0) += 1.0;
        }
        m
    }

    /// The answers every analytics question needs, computed once.
    pub fn facts(&self) -> SalesFacts {
        let by_cat = |o: &Order| o.category.to_string();
        let by_month = |o: &Order| o.month.to_string();
        let total: f64 = self.orders.iter().map(|o| o.amount).sum();
        let cat_sum = self.order_sums(by_cat);
        let cat_count = self.order_counts(by_cat);
        let cat_avg = cat_sum
            .iter()
            .map(|(k, s)| (k.clone(), s / cat_count[k]))
            .collect();
        let mut city_count = BTreeMap::new();
        for (_, city, _) in &self.users {
            *city_count.entry(city.to_string()).or_insert(0.0) += 1.0;
        }
        let by_price = |hi: bool| {
            let p = self.products.iter().max_by(|a, b| {
                let o = a.1.total_cmp(&b.1);
                if hi {
                    o
                } else {
                    o.reverse()
                }
            });
            p.expect("products exist").0.clone()
        };
        let mut amounts: Vec<f64> = self.orders.iter().map(|o| o.amount).collect();
        amounts.sort_by(f64::total_cmp);
        SalesFacts {
            orders: self.orders.len() as f64,
            users: self.users.len() as f64,
            total,
            mean: total / self.orders.len() as f64,
            max_amount: *amounts.last().expect("orders exist"),
            amounts,
            mean_age: self.users.iter().map(|u| u.2 as f64).sum::<f64>() / self.users.len() as f64,
            stock: self.products.iter().map(|p| p.2 as f64).sum(),
            priciest: by_price(true),
            cheapest: by_price(false),
            cat_count,
            cat_sum,
            cat_avg,
            month_sum: self.order_sums(by_month),
            month_count: self.order_counts(by_month),
            user_sum: self.order_sums(|o| self.users[o.user - 1].0.clone()),
            city_count,
        }
    }
}

/// Precomputed answers over a [`Sales`] database.
#[derive(Debug, Clone)]
pub struct SalesFacts {
    orders: f64,
    users: f64,
    total: f64,
    mean: f64,
    max_amount: f64,
    amounts: Vec<f64>,
    mean_age: f64,
    stock: f64,
    priciest: String,
    cheapest: String,
    cat_count: BTreeMap<String, f64>,
    cat_sum: BTreeMap<String, f64>,
    cat_avg: BTreeMap<String, f64>,
    month_sum: BTreeMap<String, f64>,
    month_count: BTreeMap<String, f64>,
    user_sum: BTreeMap<String, f64>,
    city_count: BTreeMap<String, f64>,
}

fn chat2data(input: String, expect: Expect) -> Op {
    Op {
        app: "chat2data",
        input,
        kind: Kind::Read,
        expect,
    }
}

impl SalesFacts {
    /// The analytics turn for `card` (0..100): a fifth small-table
    /// questions, then scans of `orders` (scalars, a top-1, group-bys),
    /// charts, analyses.
    fn question(&self, card: usize, rng: &mut Rng) -> Op {
        let groups = |label, values: &BTreeMap<String, f64>| Expect::Groups {
            label,
            values: values.clone(),
        };
        let q = |s: &str| s.to_string();
        match card {
            0..=19 => match rng.below(6) {
                0 => chat2data(q("How many users are there?"), Expect::Scalar(self.users)),
                1 => chat2data(
                    q("What is the average age of users?"),
                    Expect::Scalar(self.mean_age),
                ),
                2 => chat2data(
                    q("Which product has the highest price?"),
                    Expect::Text(self.priciest.clone()),
                ),
                3 => chat2data(
                    q("Which product has the lowest price?"),
                    Expect::Text(self.cheapest.clone()),
                ),
                4 => chat2data(
                    q("How many users per city?"),
                    groups("city", &self.city_count),
                ),
                _ => chat2data(
                    q("What is the total stock of products?"),
                    Expect::Scalar(self.stock),
                ),
            },
            20..=44 => match rng.below(5) {
                0 => chat2data(q("How many orders are there?"), Expect::Scalar(self.orders)),
                1 => chat2data(
                    q("What is the total amount of orders?"),
                    Expect::Scalar(self.total),
                ),
                2 => chat2data(
                    q("What is the average amount of orders?"),
                    Expect::Scalar(self.mean),
                ),
                3 => {
                    let x = 1 + rng.below(1999);
                    let above =
                        self.amounts.len() - self.amounts.partition_point(|&a| a <= x as f64);
                    chat2data(
                        format!("How many orders with amount greater than {x}?"),
                        Expect::Scalar(above as f64),
                    )
                }
                _ => {
                    let c = *rng.pick(CATEGORIES);
                    chat2data(
                        format!("How many orders whose category is {c}?"),
                        Expect::Scalar(self.cat_count.get(c).copied().unwrap_or(0.0)),
                    )
                }
            },
            45..=49 => chat2data(
                q("What is the maximum amount of orders?"),
                Expect::Scalar(self.max_amount),
            ),
            50..=74 => match rng.below(4) {
                0 => chat2data(
                    q("What is the total amount per category of orders?"),
                    groups("category", &self.cat_sum),
                ),
                1 => chat2data(
                    q("What is the average amount per category of orders?"),
                    groups("category", &self.cat_avg),
                ),
                2 => chat2data(
                    q("How many orders per month?"),
                    groups("month", &self.month_count),
                ),
                _ => chat2data(
                    q("What is the total amount per month of orders?"),
                    groups("month", &self.month_sum),
                ),
            },
            75..=91 => {
                let (input, points) = match rng.below(3) {
                    0 => (
                        "draw a pie chart of the total amount per category of orders",
                        &self.cat_sum,
                    ),
                    1 => (
                        "draw a bar chart of the average amount per category of orders",
                        &self.cat_avg,
                    ),
                    _ => (
                        "draw a line chart of the total amount per month of orders",
                        &self.month_sum,
                    ),
                };
                Op {
                    app: "chat2viz",
                    input: input.to_string(),
                    kind: Kind::Read,
                    expect: Expect::Chart(points.clone()),
                }
            }
            _ => Op {
                app: "analysis",
                input: ANALYSIS_GOAL.to_string(),
                kind: Kind::Read,
                expect: Expect::Analysis(vec![
                    ("GROUP BY category", self.cat_sum.clone()),
                    ("GROUP BY u.name", self.user_sum.clone()),
                    ("GROUP BY month", self.month_sum.clone()),
                ]),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// kbqa_retrieval: a topic-labelled synthetic corpus.

const TOPICS: &[(&str, &[&str])] = &[
    (
        "storage",
        &["btree", "compaction", "wal", "checkpoint", "page", "buffer"],
    ),
    (
        "query",
        &[
            "optimizer",
            "join",
            "predicate",
            "cardinality",
            "plan",
            "scan",
        ],
    ),
    (
        "serving",
        &[
            "replica", "routing", "latency", "failover", "capacity", "worker",
        ],
    ),
    (
        "agents",
        &[
            "planner",
            "aggregator",
            "workflow",
            "operator",
            "archive",
            "task",
        ],
    ),
    (
        "retrieval",
        &["embedding", "index", "recall", "ranking", "chunk", "corpus"],
    ),
];

/// Team and service names: 60 names over thousands of documents, so a
/// query's two anchors match a handful of documents, not one.
const ENTITIES: &[&str] = &[
    "argon", "basalt", "cobalt", "dynamo", "ember", "falcon", "garnet", "harbor", "indigo",
    "jasper", "krypton", "lumen", "marble", "nimbus", "onyx", "pylon", "quartz", "raven", "sable",
    "topaz", "umber", "vertex", "willow", "xenith", "yarrow", "zephyr", "anchor", "breeze",
    "cinder", "delta", "echo", "flint", "grove", "haven", "iris", "juniper", "kestrel", "lagoon",
    "mesa", "north", "opal", "prism", "quill", "ridge", "summit", "tundra", "ultra", "vapor",
    "wharf", "xylem", "yonder", "zenith", "atlas", "bay", "crest", "dune", "elm", "ford", "glen",
    "hollow",
];

/// One knowledge-base document.
#[derive(Debug, Clone)]
pub struct Doc {
    /// Document id (what KBQA cites in `sources`).
    pub id: String,
    /// Body text.
    pub text: String,
    team: &'static str,
    service: &'static str,
}

/// `n` incident reviews, each anchored on a team and a service.
pub fn corpus(seed: u64, n: usize) -> Vec<Doc> {
    let mut rng = Rng::new(seed, 3);
    let filler = [
        "the system",
        "we observe",
        "in practice",
        "measurements show",
        "the design",
        "under load",
        "operators report",
        "by default",
    ];
    (0..n)
        .map(|i| {
            let (topic, words) = TOPICS[i % TOPICS.len()];
            let team = *rng.pick(ENTITIES);
            let service = *rng.pick(ENTITIES);
            let mut text = format!("Incident review by team {team} concerning service {service}. ");
            for _ in 0..4 {
                let (f, a, b) = (rng.pick(&filler), rng.pick(words), rng.pick(words));
                text.push_str(&format!(
                    "{f} {a} interacts with {b} in the {topic} subsystem. "
                ));
            }
            text.push_str(&format!(
                "Team {team} tuned the {} settings for {service}.",
                words[i % words.len()]
            ));
            Doc {
                id: format!("doc-{i}"),
                text,
                team,
                service,
            }
        })
        .collect()
}

/// A question about one document: its two anchors plus two of its longer
/// words. The document is the expected source.
fn kb_question(docs: &[Doc], rng: &mut Rng) -> Op {
    let d = rng.pick(docs);
    let words: Vec<&str> = d
        .text
        .split_whitespace()
        .map(|w| w.trim_matches(|c: char| !c.is_alphanumeric()))
        .filter(|w| w.len() > 4)
        .collect();
    let (w1, w2) = (rng.pick(&words), rng.pick(&words));
    Op {
        app: "kbqa",
        input: format!(
            "what did team {} report about {w1} and {w2} on service {}?",
            d.team, d.service
        ),
        kind: Kind::Read,
        expect: Expect::Source(d.id.clone()),
    }
}

// ---------------------------------------------------------------------------
// Shared by analytics and KBQA: the last turn of a session stores the
// user's rating of the session, a small Chat2DB INSERT.

const FEEDBACK_DDL: &str = "CREATE TABLE feedback (id INT, client INT, rating INT, note TEXT)";
const NOTES: &[&str] = &[
    "helpful",
    "wrong chart",
    "too slow",
    "clear",
    "needs detail",
];

fn feedback(client: usize, session: usize, rng: &mut Rng) -> Op {
    Op {
        app: "chat2db",
        input: format!(
            "INSERT INTO feedback VALUES ({session}, {client}, {}, '{}')",
            1 + rng.below(5),
            rng.pick(NOTES)
        ),
        kind: Kind::Write,
        expect: Expect::Affected(1),
    }
}

// ---------------------------------------------------------------------------
// chat2db_oltp: accounts with Zipf-keyed point reads beside writes.

/// Share of OLTP requests that read, in percent; the rest split evenly
/// between UPDATEs and INSERTs.
const OLTP_READ_PERCENT: usize = 90;

fn initial_balance(seed: u64, id: usize) -> i64 {
    Rng::new(seed, 1_000_000 + id as u64).below(1_000_000) as i64
}

fn oltp_setup_sql(seed: u64) -> Vec<String> {
    let rows: Vec<String> = (0..ACCOUNTS)
        .map(|id| format!("({id}, 'owner{}', {})", id % 997, initial_balance(seed, id)))
        .collect();
    let mut sql = vec![
        "CREATE TABLE accounts (id INT, owner TEXT, balance INT)".to_string(),
        "CREATE TABLE transfers (id INT, src INT, dst INT, amount INT)".to_string(),
    ];
    sql.extend(insert_batches("accounts", &rows));
    sql.push("CREATE INDEX accounts_id ON accounts (id)".to_string());
    sql
}

/// One client's slice of the accounts. Clients touch disjoint keys, so
/// each stream's oracle is exact under any interleaving of the two.
#[derive(Debug, Clone)]
struct Accounts {
    /// Keys owned by this client, hottest first.
    keys: Vec<usize>,
    zipf: Arc<Zipf>,
    /// Current balance per owned key (read-your-writes).
    balance: BTreeMap<usize, i64>,
    transfers: usize,
}

impl std::fmt::Debug for Zipf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Zipf({})", self.cdf.len())
    }
}

impl Accounts {
    fn new(seed: u64, client: usize, rng: &mut Rng) -> Accounts {
        let mut keys: Vec<usize> = (client..ACCOUNTS).step_by(CLIENTS).collect();
        rng.shuffle(&mut keys);
        let balance = keys
            .iter()
            .map(|&k| (k, initial_balance(seed, k)))
            .collect();
        Accounts {
            zipf: Arc::new(Zipf::new(keys.len(), 0.99)),
            keys,
            balance,
            transfers: 0,
        }
    }

    fn op(&mut self, client: usize, rng: &mut Rng) -> Op {
        let key = self.keys[self.zipf.sample(rng)];
        let roll = rng.below(100);
        let chat2db = |input: String, kind, expect| Op {
            app: "chat2db",
            input,
            kind,
            expect,
        };
        if roll < OLTP_READ_PERCENT {
            chat2db(
                format!("SELECT balance FROM accounts WHERE id = {key}"),
                Kind::Read,
                Expect::Cell(self.balance[&key]),
            )
        } else if roll < OLTP_READ_PERCENT + (100 - OLTP_READ_PERCENT) / 2 {
            let v = rng.below(1_000_000) as i64;
            self.balance.insert(key, v);
            chat2db(
                format!("UPDATE accounts SET balance = {v} WHERE id = {key}"),
                Kind::Write,
                Expect::Affected(1),
            )
        } else {
            self.transfers += 1;
            let id = self.transfers * CLIENTS + client;
            let dst = rng.below(ACCOUNTS);
            chat2db(
                format!(
                    "INSERT INTO transfers VALUES ({id}, {key}, {dst}, {})",
                    1 + rng.below(5_000)
                ),
                Kind::Write,
                Expect::Affected(1),
            )
        }
    }
}

// ---------------------------------------------------------------------------

fn insert_batches(table: &str, rows: &[String]) -> Vec<String> {
    rows.chunks(500)
        .map(|c| format!("INSERT INTO {table} VALUES {}", c.join(", ")))
        .collect()
}

/// What set-up loads for one workload and seed, and the shared oracle
/// state the request streams draw on.
#[derive(Debug, Clone)]
pub struct Scenario {
    workload: Workload,
    seed: u64,
    /// SQL run at set-up, in order (DDL, INSERT batches, indexes).
    pub setup_sql: Vec<String>,
    /// Knowledge-base documents ingested at set-up.
    pub docs: Arc<Vec<Doc>>,
    facts: Option<Arc<SalesFacts>>,
}

impl Scenario {
    /// Generate the scenario for a workload and seed.
    pub fn new(workload: Workload, seed: u64) -> Scenario {
        let (setup_sql, docs, facts) = match workload {
            Workload::Analytics => {
                let sales = Sales::generate(seed, ORDERS);
                (sales.setup_sql(), Vec::new(), Some(Arc::new(sales.facts())))
            }
            Workload::Kbqa => (
                vec![FEEDBACK_DDL.to_string()],
                corpus(seed, DOCUMENTS),
                None,
            ),
            Workload::Oltp => (oltp_setup_sql(seed), Vec::new(), None),
        };
        Scenario {
            workload,
            seed,
            setup_sql,
            docs: Arc::new(docs),
            facts,
        }
    }

    /// The request stream of one client.
    pub fn stream(&self, client: usize) -> Stream {
        let mut rng = Rng::new(self.seed, 100 + client as u64);
        let source = match self.workload {
            Workload::Analytics => {
                let facts = self.facts.clone().expect("analytics scenario has facts");
                Source::Sales(facts, Vec::new())
            }
            Workload::Kbqa => Source::Docs(self.docs.clone()),
            Workload::Oltp => Source::Accounts(Accounts::new(self.seed, client, &mut rng)),
        };
        Stream {
            rng,
            client,
            turn: 0,
            source,
        }
    }

    /// Digest of the first `n` requests of every client's stream.
    pub fn stream_hash(&self, n: usize) -> u64 {
        let mut h = Fnv::default();
        for c in 0..CLIENTS {
            let mut s = self.stream(c);
            for _ in 0..n {
                let op = s.next_op();
                h.eat(op.app.as_bytes());
                h.eat(op.input.as_bytes());
            }
        }
        h.finish()
    }
}

#[derive(Debug, Clone)]
enum Source {
    /// The facts, and the cards left in the current deck of 100: dealing
    /// the mix from a shuffled deck keeps its composition exact, so runs
    /// with different seeds differ in order and data, not in mix.
    Sales(Arc<SalesFacts>, Vec<usize>),
    Docs(Arc<Vec<Doc>>),
    Accounts(Accounts),
}

/// One client's endless, seeded request stream.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    client: usize,
    turn: usize,
    source: Source,
}

impl Stream {
    /// True when the next request opens a new session.
    pub fn session_starts(&self) -> bool {
        self.turn.is_multiple_of(TURNS_PER_SESSION)
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        let session = self.turn / TURNS_PER_SESSION;
        let last_turn = self.turn % TURNS_PER_SESSION == TURNS_PER_SESSION - 1;
        self.turn += 1;
        let rng = &mut self.rng;
        match &mut self.source {
            Source::Sales(..) | Source::Docs(_) if last_turn => feedback(self.client, session, rng),
            Source::Sales(facts, deck) => {
                if deck.is_empty() {
                    *deck = (0..100).collect();
                    rng.shuffle(deck);
                }
                let card = deck.pop().expect("deck refilled above");
                facts.question(card, rng)
            }
            Source::Docs(docs) => kb_question(docs, rng),
            Source::Accounts(acc) => acc.op(self.client, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn tiny_sales() -> Sales {
        let o = |user, amount, category, month| Order {
            user,
            amount,
            category,
            month,
        };
        Sales {
            users: vec![
                ("ann".into(), "oslo", 30),
                ("bo".into(), "lima", 41),
                ("cy".into(), "oslo", 50),
            ],
            products: vec![("pen".into(), 2.5, 10), ("ink".into(), 12.5, 4)],
            orders: vec![
                o(1, 10.25, "books", "jan"),
                o(2, 3.5, "tech", "jan"),
                o(1, 6.0, "tech", "feb"),
                o(3, 0.25, "books", "mar"),
            ],
        }
    }

    fn map(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn sales_facts_match_hand_computation() {
        let f = tiny_sales().facts();
        assert_eq!((f.orders, f.users, f.total), (4.0, 3.0, 20.0));
        assert_eq!(f.mean, 5.0);
        assert_eq!(f.max_amount, 10.25);
        assert_eq!(f.mean_age, 121.0 / 3.0);
        assert_eq!(f.stock, 14.0);
        assert_eq!((f.priciest.as_str(), f.cheapest.as_str()), ("ink", "pen"));
        assert_eq!(f.cat_sum, map(&[("books", 10.5), ("tech", 9.5)]));
        assert_eq!(f.cat_avg, map(&[("books", 5.25), ("tech", 4.75)]));
        assert_eq!(
            f.month_count,
            map(&[("feb", 1.0), ("jan", 2.0), ("mar", 1.0)])
        );
        assert_eq!(
            f.month_sum,
            map(&[("feb", 6.0), ("jan", 13.75), ("mar", 0.25)])
        );
        assert_eq!(
            f.user_sum,
            map(&[("ann", 16.25), ("bo", 3.5), ("cy", 0.25)])
        );
        assert_eq!(f.city_count, map(&[("lima", 1.0), ("oslo", 2.0)]));
    }

    #[test]
    fn threshold_question_counts_strictly_greater() {
        let f = tiny_sales().facts();
        let mut rng = Rng::new(5, 0);
        let op = (0..10_000)
            .map(|i| f.question(i % 100, &mut rng))
            .find(|op| op.input.contains("greater than"))
            .expect("threshold questions occur");
        let x: f64 = op
            .input
            .split_whitespace()
            .nth(7)
            .unwrap()
            .trim_end_matches('?')
            .parse()
            .unwrap();
        let want = f.amounts.iter().filter(|&&a| a > x).count() as f64;
        assert_eq!(op.expect, Expect::Scalar(want));
    }

    #[test]
    fn checks_chat2data_replies() {
        let scalar = json!({"answer": "The answer is 4.", "data": [{"COUNT(*)": "4"}]});
        assert_eq!(check(&Expect::Scalar(4.0), &scalar), Verdict::Right);
        assert!(matches!(
            check(&Expect::Scalar(5.0), &scalar),
            Verdict::Wrong(_)
        ));
        let text = json!({"data": [{"name": "ink"}]});
        assert_eq!(check(&Expect::Text("ink".into()), &text), Verdict::Right);
        let groups = json!({"data": [
            {"category": "books", "SUM(amount)": "10.5"},
            {"category": "tech", "SUM(amount)": "9.5"}]});
        let want = Expect::Groups {
            label: "category",
            values: map(&[("books", 10.5), ("tech", 9.5)]),
        };
        assert_eq!(check(&want, &groups), Verdict::Right);
        let short = json!({"data": [{"category": "books", "SUM(amount)": "10.5"}]});
        assert!(matches!(check(&want, &short), Verdict::Wrong(_)));
    }

    #[test]
    fn checks_charts_and_analyses() {
        let spec = json!({"points": [{"label": "a", "value": 1.5}, {"label": "b", "value": 2.0}]});
        let want = map(&[("a", 1.5), ("b", 2.0)]);
        assert_eq!(
            check(&Expect::Chart(want.clone()), &json!({"spec": spec})),
            Verdict::Right
        );
        let report = json!({
            "chart_sql": ["SELECT x GROUP BY month", "SELECT y GROUP BY category"],
            "charts": [{"points": [{"label": "jan", "value": 3.0}]}, spec]});
        let expect = Expect::Analysis(vec![
            ("GROUP BY category", want),
            ("GROUP BY month", map(&[("jan", 3.0)])),
        ]);
        assert_eq!(check(&expect, &report), Verdict::Right);
        let expect = Expect::Analysis(vec![
            ("GROUP BY category", map(&[("a", 1.5)])),
            ("GROUP BY month", map(&[("jan", 3.0)])),
        ]);
        assert!(matches!(check(&expect, &report), Verdict::Wrong(_)));
    }

    #[test]
    fn checks_chat2db_and_kbqa_replies() {
        let table = "+---------+\n| balance |\n+---------+\n| 4200    |\n+---------+\n";
        let read = json!({"rows": 1, "table": table});
        assert_eq!(check(&Expect::Cell(4200), &read), Verdict::Right);
        assert!(matches!(
            check(&Expect::Cell(4201), &read),
            Verdict::Wrong(_)
        ));
        let write = json!({"rows": 1, "table": "(1 row(s) affected)"});
        assert_eq!(check(&Expect::Affected(1), &write), Verdict::Right);
        let kb = json!({"answer": "x", "sources": ["doc-1", "doc-7"], "chunks_used": 2});
        assert_eq!(check(&Expect::Source("doc-7".into()), &kb), Verdict::Right);
        assert_eq!(check(&Expect::Source("doc-9".into()), &kb), Verdict::Miss);
        let empty = json!({"answer": "", "sources": []});
        assert!(matches!(
            check(&Expect::Source("doc-9".into()), &empty),
            Verdict::Wrong(_)
        ));
    }

    #[test]
    fn oltp_oracle_reads_its_own_writes() {
        let mut s = Scenario::new(Workload::Oltp, 11).stream(1);
        let mut last: BTreeMap<usize, i64> = BTreeMap::new();
        for _ in 0..5_000 {
            let op = s.next_op();
            let key = |sql: &str| sql.rsplit(' ').next().unwrap().parse::<usize>().unwrap();
            if op.input.starts_with("UPDATE") {
                let v = op.input.split_whitespace().nth(5).unwrap().parse().unwrap();
                last.insert(key(&op.input), v);
            } else if op.input.starts_with("SELECT") {
                let k = key(&op.input);
                assert_eq!(k % CLIENTS, 1, "client 1 reads only its own keys");
                let want = last
                    .get(&k)
                    .copied()
                    .unwrap_or_else(|| initial_balance(11, k));
                assert_eq!(op.expect, Expect::Cell(want));
            }
        }
        assert!(!last.is_empty());
    }

    #[test]
    fn oltp_mix_is_ninety_percent_reads_and_zipf_skewed() {
        let mut s = Scenario::new(Workload::Oltp, 3).stream(0);
        let ops: Vec<Op> = (0..20_000).map(|_| s.next_op()).collect();
        let reads = ops.iter().filter(|o| o.kind == Kind::Read).count();
        assert!((17_600..18_400).contains(&reads), "{reads}");
        let mut hits: BTreeMap<&str, usize> = BTreeMap::new();
        for o in &ops {
            *hits.entry(o.input.rsplit(' ').next().unwrap()).or_default() += 1;
        }
        let hottest = hits.values().max().unwrap();
        assert!(*hottest > 20_000 / 50, "hottest key seen {hottest} times");
    }

    #[test]
    fn analytics_mix_is_exact_per_hundred_questions() {
        let mut s = Scenario::new(Workload::Analytics, 9).stream(0);
        let questions: Vec<Op> = (0..800)
            .map(|_| s.next_op())
            .filter(|o| o.kind == Kind::Read)
            .collect();
        assert_eq!(questions.len(), 700);
        let count = |app| questions[..600].iter().filter(|o| o.app == app).count();
        // Six full decks: 17 charts and 8 analyses per hundred.
        assert_eq!((count("chat2viz"), count("analysis")), (6 * 17, 6 * 8));
    }

    #[test]
    fn sessions_end_with_a_feedback_write() {
        for w in [Workload::Analytics, Workload::Kbqa] {
            let mut s = Scenario::new(w, 1).stream(0);
            for turn in 0..3 * TURNS_PER_SESSION {
                assert_eq!(s.session_starts(), turn % TURNS_PER_SESSION == 0);
                let op = s.next_op();
                let last = turn % TURNS_PER_SESSION == TURNS_PER_SESSION - 1;
                assert_eq!(op.kind == Kind::Write, last, "{} turn {turn}", w.name());
            }
        }
    }

    #[test]
    fn kb_questions_name_their_document_anchors() {
        let docs = corpus(4, 50);
        let mut rng = Rng::new(4, 9);
        for _ in 0..100 {
            let op = kb_question(&docs, &mut rng);
            let Expect::Source(id) = &op.expect else {
                panic!("{op:?}")
            };
            let d = docs.iter().find(|d| &d.id == id).unwrap();
            assert!(d.text.contains(&format!("team {}", d.team)));
            assert!(op.input.contains(&format!("team {}", d.team)));
            assert!(op.input.contains(&format!("service {}", d.service)));
        }
    }

    #[test]
    fn same_seed_same_stream() {
        for w in Workload::ALL {
            let a = Scenario::new(w, 42).stream_hash(300);
            assert_eq!(a, Scenario::new(w, 42).stream_hash(300), "{}", w.name());
            assert_ne!(a, Scenario::new(w, 43).stream_hash(300), "{}", w.name());
        }
    }
}
