// The master state machine as it stood with a separate submission
// ledger beside its grant queue: `master.rs` and `ledger.rs` are the
// runtime modules of that design, and `sched.rs` its `GrantQueue`, kept
// verbatim apart from their imports as the reference for
// `tests/master_equivalence.rs`. Their own unit tests came along and run
// against the reference.

// Some fields and methods of the copies are read only through `Debug`, or
// only by what the live machine replaced them with.
#![allow(dead_code)]

pub mod ledger;
pub mod master;
pub mod sched;
