//! Index probes and index freshness, checked against index-free engines.
//!
//! - A statement that fails part-way may already have changed rows. The
//!   indexes must not keep answering from the old rows afterwards.
//! - A probe must find every row the filter accepts: literals of the other
//!   numeric type, signed zeros, inverted and fractional ranges, and INT
//!   values past 2^53, where widening to FLOAT rounds.
//!
//! Every check runs the same statements on an engine with indexes and on
//! one without, and compares the results per cell.

mod common;

use common::check;
use dbgpt_sqlengine::Engine;

/// What [`check`] names when the two engines disagree.
const CTX: &str = "indexed vs index-free";

/// Run `setup` on an indexed and an index-free engine.
fn pair(setup: &[&str], indexes: &[&str]) -> (Engine, Engine) {
    let (mut indexed, mut plain) = (Engine::new(), Engine::new());
    for sql in setup {
        indexed.execute(sql).unwrap();
        plain.execute(sql).unwrap();
    }
    for sql in indexes {
        indexed.execute(sql).unwrap();
    }
    (indexed, plain)
}

#[test]
fn failed_update_leaves_no_stale_answers() {
    let setup = [
        "CREATE TABLE t (id INT, name TEXT)",
        "INSERT INTO t VALUES (10, 'a'), (3, 'b'), (5, 'c'), (7, 'd')",
    ];
    let (mut indexed, mut plain) = pair(&setup, &["CREATE INDEX t_id ON t (id)"]);
    // Probe the fresh index before the failing write.
    check("SELECT SUM(id) FROM t", &mut indexed, &mut plain, CTX);
    // Row 10 is updated to 100, then row 3 divides by zero.
    let sql = "UPDATE t SET id = 100 WHERE 10 / (id - 3) > 0";
    assert!(indexed.execute(sql).is_err());
    assert!(plain.execute(sql).is_err());
    for sql in [
        "SELECT id, name FROM t WHERE id = 100",
        "SELECT id, name FROM t WHERE id = 10",
        "SELECT SUM(id) FROM t",
        "SELECT id, name FROM t",
    ] {
        check(sql, &mut indexed, &mut plain, CTX);
    }
    let r = indexed.execute("SELECT SUM(id) FROM t").unwrap();
    assert_eq!(r.rows[0][0].as_i64(), Some(115));
}

#[test]
fn failed_delete_then_point_read_is_ok() {
    let setup = [
        "CREATE TABLE a (id INT, balance INT)",
        "INSERT INTO a VALUES (1, 100), (2, 30), (5, 50), (7, 70)",
    ];
    let (mut indexed, mut plain) = pair(&setup, &["CREATE INDEX a_id ON a (id)"]);
    // Rows 1, 5 and 7 go; row 2 divides by zero and stays.
    let sql = "DELETE FROM a WHERE 100 / (balance - 30) > 0";
    assert!(indexed.execute(sql).is_err());
    assert!(plain.execute(sql).is_err());
    let r = indexed.execute("SELECT balance FROM a WHERE id = 7");
    assert!(r.is_ok(), "{r:?}");
    for sql in [
        "SELECT balance FROM a WHERE id = 7",
        "SELECT balance FROM a WHERE id = 2",
        "SELECT id, balance FROM a WHERE id >= 1",
        "SELECT COUNT(*) FROM a",
    ] {
        check(sql, &mut indexed, &mut plain, CTX);
    }
}

#[test]
fn probes_find_cross_type_and_signed_zero_rows() {
    let setup = [
        "CREATE TABLE p (id INT, f FLOAT)",
        "INSERT INTO p VALUES (5, 2.0), (3, -0.0), (4, 0.0), (6, 0.5), (2, -0.5), \
         (9007199254740993, 1.0), (9007199254740992, 2.0), (NULL, NULL), (5, -0.0), \
         (7, 9007199254740994.0), (8, 9007199254740996.0)",
    ];
    let indexes = ["CREATE INDEX p_id ON p (id)", "CREATE INDEX p_f ON p (f)"];
    let queries = [
        // INT column, FLOAT literal, either side.
        "SELECT id, f FROM p WHERE id = 5.0",
        "SELECT id, f FROM p WHERE 5.0 = id",
        "SELECT id, f FROM p WHERE id = 5.5",
        "SELECT id, f FROM p WHERE id > 4.5 AND id < 5.5",
        "SELECT id, f FROM p WHERE 4.5 < id",
        "SELECT id, f FROM p WHERE id BETWEEN 2.5 AND 2.7",
        "SELECT id, f FROM p WHERE id BETWEEN 2.5 AND 5.0",
        // FLOAT column, INT literal.
        "SELECT id, f FROM p WHERE f = 2",
        "SELECT id, f FROM p WHERE 2 = f",
        "SELECT id, f FROM p WHERE f >= 1",
        "SELECT id, f FROM p WHERE f BETWEEN 0 AND 1",
        // Signed zeros are equal in SQL.
        "SELECT id, f FROM p WHERE f = 0.0",
        "SELECT id, f FROM p WHERE f = -0.0",
        "SELECT id, f FROM p WHERE f >= 0.0",
        "SELECT id, f FROM p WHERE f <= -0.0",
        "SELECT id, f FROM p WHERE f < 0.0",
        "SELECT id, f FROM p WHERE f > -0.0",
        // Inverted ranges are empty, never a panic.
        "SELECT id, f FROM p WHERE id BETWEEN 10 AND 5",
        "SELECT id, f FROM p WHERE f BETWEEN 1.0 AND 0.5",
        "SELECT id, f FROM p WHERE id BETWEEN 5.5 AND 5.2",
        // Past 2^53 neighbouring INTs widen to the same FLOAT.
        "SELECT id, f FROM p WHERE id = 9007199254740992.0",
        "SELECT id, f FROM p WHERE id >= 9007199254740992.0",
        "SELECT id, f FROM p WHERE id < 9007199254740992.0",
        // FLOAT column, INT literal that rounds up (…995 → …996) or down
        // (…993 → …992) when widened: SQL compares exactly.
        "SELECT id, f FROM p WHERE f > 9007199254740995",
        "SELECT id, f FROM p WHERE f >= 9007199254740995",
        "SELECT id, f FROM p WHERE f < 9007199254740995",
        "SELECT id, f FROM p WHERE f = 9007199254740995",
        "SELECT id, f FROM p WHERE f <= 9007199254740993",
        "SELECT id, f FROM p WHERE 9007199254740993 < f",
    ];
    let (mut indexed, mut plain) = pair(&setup, &indexes);
    for sql in queries {
        check(sql, &mut indexed, &mut plain, CTX);
    }
    let t = indexed.database().table("p").unwrap();
    assert!(t.has_fresh_index(0) && t.has_fresh_index(1));
}
