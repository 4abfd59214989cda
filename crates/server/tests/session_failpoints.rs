//! Fault injection at a subscription's session (`--features failpoints`).
//! Subscriptions run on the connection thread that calls them, so a panic
//! inside one subscription's `CHECKPOINT` must be contained to that
//! subscription: the request gets `ERR 4`, the connection stays open, and
//! the other subscriptions on the channel keep feeding and finish
//! byte-identical to batch execution.

#![cfg(feature = "failpoints")]

use sqlts_core::{compile, execute, CompileOptions, ExecOptions};
use sqlts_relation::failpoints::{self, FailAction};
use sqlts_relation::{parse_headerless_row, ColumnType, Schema, Table};
use sqlts_server::{read_frame, write_frame, FrameEvent, Server, ServerConfig};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const RISE_FALL: &str = "SELECT X.name, Z.day AS day FROM q CLUSTER BY name \
                         SEQUENCE BY day AS (X, *Y, Z) \
                         WHERE Y.price > Y.previous.price \
                         AND Z.price < Z.previous.price";
const HIGHER: &str = "SELECT X.name, Y.day AS day FROM q CLUSTER BY name \
                      SEQUENCE BY day AS (X, Y) WHERE Y.price > X.price";

fn schema() -> Schema {
    Schema::new([
        ("name", ColumnType::Str),
        ("day", ColumnType::Int),
        ("price", ColumnType::Float),
    ])
    .unwrap()
}

fn lines() -> Vec<String> {
    let mut out = Vec::new();
    for day in 0..60i64 {
        for (name, phase) in [("AAA", 0i64), ("BBB", 2)] {
            let price = 100 + ((day + phase) % 7) * 3 - ((day + phase) % 3) * 5;
            out.push(format!("{name},{day},{price}"));
        }
    }
    out
}

fn batch_csv(sql: &str, lines: &[String]) -> String {
    let schema = schema();
    let mut table = Table::new(schema.clone());
    for (i, line) in lines.iter().enumerate() {
        table
            .push_row(parse_headerless_row(&schema, line, i + 1).unwrap())
            .unwrap();
    }
    let query = compile(sql, &schema, &CompileOptions::default()).unwrap();
    execute(&query, &table, &ExecOptions::default())
        .unwrap()
        .table
        .to_csv_string()
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn request(&mut self, payload: &str) -> String {
        write_frame(&mut self.stream, payload).unwrap();
        match read_frame(&mut self.reader, 1 << 24).unwrap() {
            FrameEvent::Payload(text) => text,
            other => panic!("unexpected frame event: {other:?}"),
        }
    }
}

#[test]
fn checkpoint_panic_costs_only_its_own_subscription() {
    failpoints::reset();
    let server = Arc::new(Server::bind(ServerConfig::default()).unwrap());
    let addr = server.local_addr().unwrap().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
        std::thread::spawn(move || {
            let _ = server.run_until(&stop);
        })
    };

    let all = lines();
    let (first, rest) = all.split_at(all.len() / 2);
    let mut client = Client::connect(&addr);
    client.request("OPEN q name:str,day:int,price:float");
    for (id, sql) in [("a", RISE_FALL), ("victim", RISE_FALL), ("b", HIGHER)] {
        let reply = client.request(&format!("SUBSCRIBE {id} q\n{sql}"));
        assert_eq!(reply, format!("OK subscribed {id} q"));
    }
    let reply = client.request(&format!("FEED q\n{}", first.join("\n")));
    assert!(reply.starts_with("OK fed 60 subs=3 rejected=0"), "{reply}");

    // Without a data dir nothing else snapshots, so the first hit is the
    // victim's CHECKPOINT.
    failpoints::configure_rule("stream::checkpoint", FailAction::Panic, 1, None, true);
    let reply = client.request("CHECKPOINT victim");
    failpoints::reset();
    assert!(reply.starts_with("ERR 4 "), "{reply}");
    assert_eq!(
        client.request("PING"),
        "OK pong",
        "connection must stay open"
    );
    assert!(client.request("STATUS victim").starts_with("ERR 4 "));

    // The channel keeps feeding: only the victim rejects rows.
    let reply = client.request(&format!("FEED q\n{}", rest.join("\n")));
    assert!(reply.starts_with("OK fed 60 subs=3 rejected=60"), "{reply}");
    for (id, sql) in [("a", RISE_FALL), ("b", HIGHER)] {
        let reply = client.request(&format!("UNSUBSCRIBE {id}"));
        let (head, body) = reply.split_once('\n').unwrap();
        assert!(head.starts_with(&format!("RESULT {id} 0 ")), "{head}");
        assert_eq!(body, batch_csv(sql, &all), "{id} must equal batch");
    }
    assert!(client.request("UNSUBSCRIBE victim").starts_with("ERR 4 "));

    drop(client);
    stop.store(true, Ordering::SeqCst);
    handle.join().unwrap();
}
