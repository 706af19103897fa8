// Fixture: the "rest of the workspace" for p0001_unreachable_pub.rs,
// analyzed as tests/p0001_callers.rs. Definitions here are never
// findings (not under crates/*/src).

pub use fixture::only_reexported; // a re-export is not a call
use fixture::{called_elsewhere, driver, Knobs};

pub fn not_product_source() {}

fn main() {
    called_elsewhere();
    driver();
    let k = Knobs { unread: 1 };
    let _ = vec![k].len();
}
