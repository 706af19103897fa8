// Fixture: U0002 — raw-pointer arithmetic.
// Exact expected (code, line) pairs live in tests/golden.rs.

fn second(v: &[u8]) -> u8 {
    let base = v.as_ptr();
    // SAFETY: v has at least two elements (checked by the caller).
    unsafe { *base.add(1) }
}

fn typed(p: *const u32, idx: usize) -> *const u32 {
    // SAFETY: idx is in bounds per the caller.
    unsafe { p.offset(idx as isize) }
}

fn decoy(total: u64, extra: u64) -> u64 {
    // Ordinary numeric methods named `add` must not trip the rule.
    total.checked_add(extra).unwrap_or(u64::MAX)
}
