//! Fixture layout pins: mentions WIRE_VERSION, STATUS_OK, Ping, Load,
//! and Pong — but never the ghost status or the unpinned reply.

#[test]
fn pins() {
    // WIRE_VERSION and STATUS_OK are pinned here byte-level; the
    // Request::Ping / Request::Load and Reply::Pong layouts ride along.
    let _frame = [WIRE_VERSION, STATUS_OK];
}
