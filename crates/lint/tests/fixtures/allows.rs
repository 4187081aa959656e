//@path crates/core/src/mac.rs
//! Fixture: allow hygiene — malformed, unknown-lint, and stale allows.

fn reasonless(v: Vec<u8>) -> u8 {
    // jmb-allow(no-panic-hot-path)
    *v.first().unwrap()
}

fn unknown_lint(v: Vec<u8>) -> u8 {
    // jmb-allow(no-such-lint): the lint name is wrong, so nothing is suppressed
    v.len() as u8
}

// jmb-allow(no-panic-hot-path): stale — nothing on the next line panics
fn stale_allow(v: Vec<u8>) -> usize {
    v.len()
}

fn wrong_lint_name(v: Vec<u8>) -> u8 {
    // jmb-allow(ordered-merge): names the wrong lint, so the unwrap still fires
    *v.first().unwrap()
}
