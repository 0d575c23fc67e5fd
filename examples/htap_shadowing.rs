//! Figure 7: "AsterixDB puts the A in NoSQL HTAP" — Couchbase-Analytics-style
//! shadowing of an operational store into an analytics backend.
//!
//! ```sh
//! cargo run --example htap_shadowing
//! ```
//!
//! An operational KV document store ingests order documents while a DCP-like
//! mutation stream shadows them into an analytics dataset in real time.
//! Analytics queries (SQL++) run against the up-to-date shadow copy only —
//! the paper's performance-isolation story.

use asterix_rs::core::dcp::FrontEndStore;
use asterix_rs::core::feeds::{Feed, FeedConfig};
use asterix_rs::core::instance::Instance;

fn order_doc(id: i64, customer: i64, total_cents: i64, status: &str) -> asterix_rs::adm::Value {
    asterix_rs::adm::parse::parse_value(&format!(
        r#"{{"id": {id}, "customer": {customer}, "totalCents": {total_cents},
            "status": "{status}",
            "placedAt": datetime("2018-11-0{}T12:00:00")}}"#,
        id % 9 + 1
    ))
    .unwrap()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // the analytics side: an AsterixDB instance with a shadow dataset
    let analytics = Instance::temp()?;
    analytics.execute_sqlpp(
        "CREATE TYPE OrderType AS {
             id: int, customer: int, totalCents: int, status: string, placedAt: datetime
         };
         CREATE DATASET Orders(OrderType) PRIMARY KEY id;",
    )?;
    // the operational side: the front-end Data Service
    let store = FrontEndStore::new();
    // a DCP feed (Figure 7's arrow from Data Service to Analytics)
    let feed = Feed::shadow(
        analytics.clone(),
        "Orders",
        store.clone(),
        FeedConfig::default(),
    )?;

    println!("ingesting 5000 order mutations into the front-end store...");
    for i in 0..5_000i64 {
        let id = i % 1_500; // plenty of overwrites, like a real order flow
        let status = match i % 4 {
            0 => "placed",
            1 => "paid",
            2 => "shipped",
            _ => "delivered",
        };
        store.set(format!("{id}"), order_doc(id, id % 200, (i % 500 + 1) * 100, status));
        if i % 1_000 == 999 {
            let lag = store.high_seq() - feed.last_durable_seq();
            println!("  ingested {} mutations, shadow lag = {lag}", i + 1);
        }
    }
    // a delete, too (cancelled order)
    store.delete("42");
    let (_, rejected) = feed.stop();
    assert_eq!(rejected, 0, "every order document fits the shadow's type");
    println!(
        "drained: front-end has {} live docs, shadow has {} records (lag 0)\n",
        store.len(),
        analytics.count("Orders")?
    );
    assert_eq!(store.len(), analytics.count("Orders")?);

    // slice and dice "in its natural (application schema) form using SQL++"
    println!("analytics on the shadow (front-end untouched):");
    for row in analytics.query(
        "SELECT o.status AS status, COUNT(*) AS orders, SUM(o.totalCents) / 100.0 AS revenue
         FROM Orders o
         GROUP BY o.status
         ORDER BY status",
    )? {
        println!("  {row}");
    }
    let top = analytics.query(
        "SELECT o.customer AS customer, COUNT(*) AS n
         FROM Orders o GROUP BY o.customer ORDER BY n DESC, customer LIMIT 3",
    )?;
    println!("\ntop 3 customers by order count:");
    for row in top {
        println!("  {row}");
    }
    // the cancelled order is gone from the shadow as well
    let gone = analytics.query("SELECT VALUE o FROM Orders o WHERE o.id = 42")?;
    assert!(gone.is_empty());
    println!("\norder 42 was deleted on the front end — and is gone from the shadow too.");
    println!("(front-end reads/writes never touched the analytics engine, and vice versa)");
    Ok(())
}
