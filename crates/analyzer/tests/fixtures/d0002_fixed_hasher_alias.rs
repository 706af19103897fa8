// Fixture: D0002 — the `simcore::hash` aliases are still hash-ordered.
// A fixed hash function makes a table's layout repeatable, not
// meaningful: it still depends on insertion history and capacity, so
// iteration order must stay unobservable exactly as with std's tables.
// Exact expected (code, line) pairs live in tests/golden.rs.

use simcore::hash::{HashMap, HashSet};

struct Tables {
    flows: HashMap<u64, u32>,
    by_class: simcore::hash::HashMap<(u32, u16), u64>,
    sink_ports: HashSet<u16>,
}

impl Tables {
    fn new() -> Tables {
        Tables {
            flows: HashMap::default(),
            by_class: simcore::hash::HashMap::default(),
            sink_ports: HashSet::default(),
        }
    }

    // BAD: unsorted collect over the alias escapes to the caller.
    fn stale(&self) -> Vec<u64> {
        let rows: Vec<u64> = self.flows.keys().copied().collect();
        rows
    }

    // GOOD: what `Lpa::flush_idle` does — collect, then sort.
    fn stale_sorted(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.flows.keys().copied().collect();
        keys.sort();
        keys
    }

    // BAD: a field declared through the full path is the same table.
    fn first_class(&self) -> Option<u64> {
        self.by_class.values().next().copied()
    }

    // BAD: a local built with `default()` (the aliases have no `new`).
    fn ports(&self) -> Vec<u16> {
        let mut seen = HashSet::default();
        seen.insert(self.flows.len() as u16);
        let mut out = Vec::new();
        for p in &seen {
            out.push(*p);
        }
        out
    }

    // GOOD: order-free terminal.
    fn any_privileged(&self) -> bool {
        self.sink_ports.iter().any(|p| *p < 1024)
    }
}
