// Fixture: public items nothing reaches (P0001), analyzed as
// crates/fixture/src/p0001.rs beside p0001_callers.rs.
// Mentions in comments never count: only_in_tests, OrphanConfig.

pub fn only_in_tests() -> u32 { // flagged: its unit test is the only caller
    7
}

pub struct OrphanConfig; // flagged: named nowhere at all

pub const UNUSED_LIMIT: u32 = 3; // flagged

pub const fn const_orphan() -> u32 { // flagged: `const fn` is a fn
    0
}

pub fn only_reexported() {} // flagged: the caller file's `use` is no call

pub fn called_elsewhere() {} // decoy: p0001_callers.rs calls it

pub fn called_here() {} // decoy: `driver` below calls it

pub fn driver() { // decoy: p0001_callers.rs calls it
    called_here();
}

pub(crate) fn crate_private() {} // decoy: rustc's dead_code polices these

pub fn len() {} // decoy: the name collides with a method used elsewhere

pub struct Knobs {
    pub unread: u32, // decoy: fields are out of scope
}

#[cfg(test)]
pub fn test_only_helper() {} // decoy: test code is not product surface

#[cfg(test)]
mod tests {
    use super::*;

    pub fn helper_in_tests() {} // decoy: inside the test module

    #[test]
    fn exercises_the_orphan() {
        assert_eq!(only_in_tests(), 7);
        let _ = "OrphanConfig UNUSED_LIMIT"; // strings never count
    }
}
