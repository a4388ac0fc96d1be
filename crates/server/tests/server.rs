//! End-to-end tests of the front door: SQL in, bytes out.
//!
//! The load-bearing assertions: every paper query submitted as SQL —
//! in-process or over a TCP connection, serially or over 8 concurrent
//! connections — produces *byte-identical* output and [`IoStats`] to the
//! direct-descriptor path.

use cvr_core::{ColumnEngine, EngineConfig, Parallelism, QueryCtx, SchedStats};
use cvr_data::gen::SsbConfig;
use cvr_data::queries::{all_queries, SsbQuery};
use cvr_data::workload::WorkloadConfig;
use cvr_server::protocol::Response;
use cvr_server::session::QueryResponse;
use cvr_server::{parser, serve, Client, Session};
use cvr_storage::io::IoSession;
use proptest::prelude::*;
use std::sync::Arc;

fn small_session() -> Arc<Session> {
    Arc::new(Session::new(Arc::new(SsbConfig::with_scale(0.001).generate())))
}

/// SQL-submitted paper queries are byte-identical to the direct-descriptor
/// path: same output bytes *and* same I/O accounting.
#[test]
fn sql_matches_descriptor_path_byte_for_byte() {
    let session = small_session();
    for q in all_queries() {
        let direct = session.run(&q);
        let QueryResponse::Rows(via_sql) = session.query(&parser::render_sql(&q)).unwrap() else {
            panic!("{}: expected rows", q.id)
        };
        assert_eq!(via_sql.query_id, q.id);
        assert_eq!(via_sql.plan, direct.plan, "{}", q.id);
        assert_eq!(via_sql.output.to_bytes(), direct.output.to_bytes(), "{}", q.id);
        assert_eq!(via_sql.io, direct.io, "{}: IoStats must match", q.id);
    }
}

/// The same holds for generated ad-hoc queries (flight 9 descriptors
/// re-entering as flight-0 SQL — different id, same plan and bytes).
#[test]
fn adhoc_sql_matches_descriptor_path() {
    let session = small_session();
    for q in (WorkloadConfig { seed: 7, count: 8 }).generate() {
        let direct = session.run(&q);
        let QueryResponse::Rows(via_sql) = session.query(&parser::render_sql(&q)).unwrap() else {
            panic!("{}: expected rows", q.id)
        };
        assert_eq!(via_sql.plan, direct.plan, "{}", q.id);
        assert_eq!(via_sql.output.to_bytes(), direct.output.to_bytes(), "{}", q.id);
        assert_eq!(via_sql.io, direct.io, "{}", q.id);
    }
}

/// N concurrent connections ≡ the same N serial: the encoded response
/// frames are byte-identical up to the `cached` flag (the serial reference
/// warms the cache, so later connections legitimately hit it).
#[test]
fn concurrent_connections_match_serial_byte_for_byte() {
    let session = small_session();
    let server = serve(session.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Serial reference: one connection, all 13 queries in order.
    let statements: Vec<String> =
        all_queries().into_iter().map(|q| parser::render_sql(&q)).collect();
    let mut client = Client::connect(addr).expect("connect");
    let serial: Vec<Vec<u8>> = statements
        .iter()
        .map(|sql| client.query(sql).expect("query").normalized().encode())
        .collect();
    client.close().expect("close");

    // 8 concurrent connections, each running all 13 queries.
    let workers: Vec<_> = (0..8)
        .map(|w| {
            let statements = statements.clone();
            std::thread::Builder::new()
                .name(format!("client-{w}"))
                .spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let got: Vec<Vec<u8>> = statements
                        .iter()
                        .map(|sql| client.query(sql).expect("query").normalized().encode())
                        .collect();
                    client.close().expect("close");
                    got
                })
                .expect("spawn")
        })
        .collect();
    for (w, worker) in workers.into_iter().enumerate() {
        let got = worker.join().expect("client thread");
        assert_eq!(got, serial, "connection {w} diverged from the serial reference");
    }
    server.shutdown();
}

/// Repeated statements come back from the result cache: the `cached` flag
/// flips, and nothing else in the frame changes.
#[test]
fn repeated_statements_hit_the_result_cache() {
    let session = small_session();
    let server = serve(session.clone(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let sql = parser::render_sql(&cvr_data::queries::query(2, 2));

    let cold = client.query(&sql).expect("cold");
    let Response::Result(cold_rs) = &cold else { panic!("expected RESULT") };
    assert!(!cold_rs.cached, "first execution must be cold");

    let warm = client.query(&sql).expect("warm");
    let Response::Result(warm_rs) = &warm else { panic!("expected RESULT") };
    assert!(warm_rs.cached, "repeat must be served from the cache");
    assert_eq!(
        warm.normalized().encode(),
        cold.normalized().encode(),
        "hit must be byte-identical"
    );

    let stats = session.cache_stats().expect("cache enabled");
    assert!(stats.result_hits >= 1, "{stats:?}");
    client.close().expect("close");
    server.shutdown();
}

/// A panic inside `Session::query` becomes a structured ERROR frame on a
/// connection that keeps serving — it must not unwind the connection
/// thread into an opaque EOF (and the shared session must stay healthy
/// for other queries, including after mutex poisoning).
#[test]
fn panics_become_error_frames_and_the_connection_survives() {
    let session = small_session();
    session.inject_panic_on("lo_quantity < 42");
    let server = serve(session.clone(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let healthy = parser::render_sql(&cvr_data::queries::query(1, 1));

    assert!(matches!(client.query(&healthy).expect("pre"), Response::Result(_)));
    let poisoned = "SELECT SUM(lo_revenue) FROM lineorder WHERE lo_quantity < 42";
    match client.query(poisoned).expect("panic must still produce a frame") {
        Response::Error { code, message } => {
            assert_eq!(code, cvr_server::server::ERROR_CODE_PANIC);
            assert!(message.contains("panicked"), "{message}");
        }
        other => panic!("expected ERROR, got {other:?}"),
    }
    // Same connection, same shared session: still serving.
    assert!(matches!(client.query(&healthy).expect("post"), Response::Result(_)));
    client.close().expect("close");
    server.shutdown();
}

/// Errors and EXPLAIN travel the wire as typed frames.
#[test]
fn errors_and_explain_over_the_wire() {
    let session = small_session();
    let server = serve(session, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    match client.query("SELECT SUM(lo_revenue) FROM lineorder WHERE lo_color = 3").unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, 2);
            assert!(message.contains("lo_color"), "{message}");
        }
        other => panic!("expected ERROR, got {other:?}"),
    }

    let sql = format!("EXPLAIN {}", parser::render_sql(&cvr_data::queries::query(3, 2)));
    match client.query(&sql).unwrap() {
        Response::Explain { text, json } => {
            assert!(text.contains("plan="), "{text}");
            assert!(json.contains("\"plan\": "), "{json}");
            assert!(json.contains("\"est_seconds\": "), "{json}");
        }
        other => panic!("expected EXPLAIN, got {other:?}"),
    }

    match client.query("SELECT SUM(lo_revenue) FROM lineorder").unwrap() {
        Response::Result(rs) => {
            let out = rs.output().expect("decodable rows");
            assert_eq!(out.rows.len(), 1, "scalar aggregate");
        }
        other => panic!("expected RESULT, got {other:?}"),
    }
    client.close().expect("close");
    server.shutdown();
}

/// Each session admits and leases through its own scheduler: two sessions
/// in one process count only their own statements, and an engine fan-out
/// that no session admitted leases from neither of them.
#[test]
fn sessions_count_only_their_own_statements() {
    let tables = Arc::new(SsbConfig::with_scale(0.001).generate());
    let par = Parallelism { threads: 4, morsel_rows: 256 };
    // No cache, so every statement is admitted and executed.
    let (a, b) = (
        Session::with_cache_budget(tables.clone(), par, 0),
        Session::with_cache_budget(tables.clone(), par, 0),
    );
    let run = |session: &Session, q: &SsbQuery| -> bool {
        !session.run_ctx(q, &QueryCtx::unbounded()).expect("runs").plan.starts_with("row:")
    };

    let column: Vec<SsbQuery> = all_queries().into_iter().filter(|q| run(&a, q)).collect();
    assert!(!column.is_empty(), "some paper query must take a column plan");
    let a_stats = a.scheduler().stats();
    assert_eq!(a_stats.admitted, 13);
    assert!(a_stats.leases >= column.len() as u64, "{a_stats:?}");
    assert_eq!(b.scheduler().stats(), SchedStats::default(), "b ran nothing");

    let q = &column[0];
    assert!(run(&b, q));
    let b_stats = b.scheduler().stats();
    assert_eq!(b_stats.admitted, 1);
    assert!(b_stats.leases >= 1, "{b_stats:?}");
    assert_eq!(a.scheduler().stats(), a_stats, "b's statement must not touch a");

    // A direct engine fan-out was never admitted: it leases from nobody.
    let engine = ColumnEngine::new(tables);
    let io = IoSession::unmetered();
    engine
        .try_execute_with(q, EngineConfig::FULL, par, &io, &QueryCtx::unbounded())
        .expect("direct run");
    assert_eq!(a.scheduler().stats(), a_stats);
    assert_eq!(b.scheduler().stats(), b_stats);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Render → parse is semantics-preserving for arbitrary generated
    /// workloads, not just the fixed seed the unit tests use.
    #[test]
    fn render_parse_round_trip_for_random_workloads(seed in any::<u64>()) {
        for q in (WorkloadConfig { seed, count: 16 }).generate() {
            let sql = parser::render_sql(&q);
            let back = parser::parse_query(&sql)
                .unwrap_or_else(|e| panic!("{e}\n  {sql}"));
            prop_assert_eq!(&back.dim_predicates, &q.dim_predicates, "{}", &sql);
            prop_assert_eq!(&back.fact_predicates, &q.fact_predicates, "{}", &sql);
            prop_assert_eq!(&back.group_by, &q.group_by, "{}", &sql);
            prop_assert_eq!(back.aggregate, q.aggregate, "{}", &sql);
        }
    }
}
