//! A write that fails part-way over the wire must not break later reads.
//!
//! A Chat2DB DELETE that divides by zero on its second row has already
//! removed the first. The SELECT after it probes the `accounts` index and
//! must answer from the rows that are left.

use dbgpt_apps::handlers::build_server;
use dbgpt_apps::AppContext;
use dbgpt_server::{Request, Status};

#[test]
fn select_after_a_failed_delete_is_ok() {
    let ctx = AppContext::local_default();
    {
        let mut engine = ctx.engine.write();
        for sql in [
            "CREATE TABLE accounts (id INT, owner TEXT, balance INT)",
            "INSERT INTO accounts VALUES (1, 'ann', 100), (2, 'bob', 30), \
             (3, 'cat', 50), (4, 'dan', 70)",
            "CREATE INDEX accounts_id ON accounts (id)",
        ] {
            engine.execute(sql).unwrap();
        }
    }
    let server = build_server(&ctx);
    let delete = "DELETE FROM accounts WHERE 100 / (balance - 30) > 0";
    let resp = server.handle(&Request::new(1, "chat2db", delete));
    assert_eq!(resp.status, Status::Error, "{resp:?}");

    // Only bob's row is left; dan's (id 4) went before the error.
    let resp = server.handle(&Request::new(
        2,
        "chat2db",
        "SELECT balance FROM accounts WHERE id = 4",
    ));
    assert_eq!(resp.status, Status::Ok, "{resp:?}");
    assert_eq!(resp.content["rows"], 0, "{resp:?}");
    let resp = server.handle(&Request::new(
        3,
        "chat2db",
        "SELECT balance FROM accounts WHERE id = 2",
    ));
    assert_eq!(resp.status, Status::Ok, "{resp:?}");
    assert_eq!(resp.content["rows"], 1, "{resp:?}");
    assert!(resp.rendered.unwrap().contains("30"));
}
