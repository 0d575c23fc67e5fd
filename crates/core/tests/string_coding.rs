//! The coding of string columns held to a number: generated Gleambook
//! messages, flushed, take at most 0.3 of their plain bytes in their string
//! chunks — read from the counters an operator sees — so that a coder that
//! stops paying fails here, not only in the benchmark; and they read back as
//! they went in.

mod common;

use asterix_adm::Value;
use asterix_core::datagen::DataGen;
use asterix_core::{Instance, InstanceConfig};

const DDL: &str = "
    CREATE TYPE GleambookMessageType AS {
        messageId: int, authorId: int, inResponseTo: int?, senderLocation: point?, message: string
    };
    CREATE DATASET GleambookMessages(GleambookMessageType) PRIMARY KEY messageId;";

#[test]
fn gleambook_messages_take_under_a_third_of_their_bytes() {
    let db = Instance::open(InstanceConfig::default()).unwrap();
    db.execute_sqlpp(DDL).unwrap();
    let mut gen = DataGen::new(7);
    let messages: Vec<Value> = (1..=20_000).map(|id| gen.message(id, 2_000)).collect();
    for chunk in messages.chunks(5_000) {
        let mut txn = db.begin();
        for message in chunk {
            txn.write("GleambookMessages", message, true).unwrap();
        }
        txn.commit().unwrap();
    }
    db.flush_all().unwrap();
    common::settle(&db);
    let (plain, coded) = (common::over_nodes(&db, ".string_bytes_plain"), common::over_nodes(&db, ".string_bytes_coded"));
    let text: usize = messages.iter().map(|m| m.field("message").as_str().unwrap().len()).sum();
    assert!(plain >= text as i128, "every message counted: {plain} plain bytes of {text} of text");
    assert!(coded * 10 <= plain * 3, "string chunks of {coded} bytes coded, {plain} plain");

    let got = db.query("SELECT VALUE m.message FROM GleambookMessages m ORDER BY m.messageId").unwrap();
    let want: Vec<Value> = messages.iter().map(|m| m.field("message").clone()).collect();
    assert_eq!(got, want);
}
