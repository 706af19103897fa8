//! Seeded E-Code program generators shared by the integration sweeps
//! (`tests/verifier.rs`) and the IR's in-crate unit tests (which
//! `#[path]`-include this file, because `ecode::ir` is crate-private).
//! Deterministic: a seed names one program, forever.
#![allow(dead_code)]

/// Deterministic xorshift64* generator so the sweep reproduces exactly.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

pub struct Gen {
    rng: Rng,
    /// Every name visible so far (inputs, locals, statics).
    vars: Vec<String>,
    /// Names assignment may target (locals and statics, not inputs).
    assignable: Vec<String>,
    next_id: u32,
}

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen {
            rng: Rng::new(seed),
            vars: vec!["size".into(), "port".into()],
            assignable: Vec::new(),
            next_id: 0,
        }
    }

    /// An int-typed expression. Divisors are restricted to shapes the
    /// checker cannot prove zero (nonzero literals, `abs(e) + 1`) so the
    /// generator never trips E0001 — runtime zero is still possible and
    /// must trap identically in original and optimized programs.
    fn expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.below(3) == 0 {
            return match self.rng.below(3) {
                0 => format!("{}", self.rng.below(19) as i64 - 9),
                _ => {
                    let i = self.rng.below(self.vars.len() as u64) as usize;
                    self.vars[i].clone()
                }
            };
        }
        match self.rng.below(8) {
            0 => format!("({} + {})", self.expr(depth - 1), self.expr(depth - 1)),
            1 => format!("({} - {})", self.expr(depth - 1), self.expr(depth - 1)),
            2 => format!("({} * {})", self.expr(depth - 1), self.expr(depth - 1)),
            3 => format!("({} / {})", self.expr(depth - 1), self.divisor(depth - 1)),
            4 => format!("({} % {})", self.expr(depth - 1), self.divisor(depth - 1)),
            5 => format!("abs({})", self.expr(depth - 1)),
            6 => format!(
                "{}({}, {})",
                if self.rng.below(2) == 0 { "min" } else { "max" },
                self.expr(depth - 1),
                self.expr(depth - 1)
            ),
            _ => format!("(-{})", self.expr(depth - 1)),
        }
    }

    fn divisor(&mut self, depth: u32) -> String {
        const SAFE: [&str; 6] = ["2", "3", "5", "7", "9", "-3"];
        if self.rng.below(2) == 0 {
            SAFE[self.rng.below(SAFE.len() as u64) as usize].to_owned()
        } else {
            format!("(abs({}) + 1)", self.expr(depth))
        }
    }

    fn cond(&mut self, depth: u32) -> String {
        const CMP: [&str; 6] = ["<", "<=", ">", ">=", "==", "!="];
        let base = format!(
            "({} {} {})",
            self.expr(depth),
            CMP[self.rng.below(CMP.len() as u64) as usize],
            self.expr(depth)
        );
        if depth > 0 && self.rng.below(4) == 0 {
            let rhs = self.cond(depth - 1);
            let op = if self.rng.below(2) == 0 { "&&" } else { "||" };
            format!("({base} {op} {rhs})")
        } else {
            base
        }
    }

    fn stmts(&mut self, n: u64, depth: u32, out: &mut String) {
        for _ in 0..n {
            match self.rng.below(6) {
                0 => {
                    let name = format!("v{}", self.next_id);
                    self.next_id += 1;
                    let init = self.expr(2);
                    out.push_str(&format!("int {name} = {init};\n"));
                    self.vars.push(name.clone());
                    self.assignable.push(name);
                }
                1 => {
                    let name = format!("s{}", self.next_id);
                    self.next_id += 1;
                    let lit = self.rng.below(19) as i64 - 9;
                    out.push_str(&format!("static int {name} = {lit};\n"));
                    self.vars.push(name.clone());
                    self.assignable.push(name);
                }
                2 if !self.assignable.is_empty() => {
                    let i = self.rng.below(self.assignable.len() as u64) as usize;
                    let name = self.assignable[i].clone();
                    let e = self.expr(2);
                    out.push_str(&format!("{name} = {e};\n"));
                }
                3 => {
                    let slot = self.rng.below(64);
                    let e = self.expr(2);
                    out.push_str(&format!("out({slot}, {e});\n"));
                }
                4 if depth > 0 => {
                    let c = self.cond(1);
                    out.push_str(&format!("if ({c}) {{\n"));
                    let n_then = self.rng.below(3) + 1;
                    self.stmts(n_then, depth - 1, out);
                    if self.rng.below(2) == 0 {
                        out.push_str("} else {\n");
                        let n_else = self.rng.below(3) + 1;
                        self.stmts(n_else, depth - 1, out);
                    }
                    out.push_str("}\n");
                }
                _ => {
                    let e = self.expr(2);
                    out.push_str(&format!("{e};\n"));
                }
            }
        }
    }

    pub fn program(mut self) -> String {
        let mut src = String::new();
        let n = self.rng.below(8) + 2;
        self.stmts(n, 2, &mut src);
        let ret = self.expr(2);
        src.push_str(&format!("return {ret};\n"));
        src
    }
}

/// Mergeable-biased generator: mostly counter/min-max/gated update
/// patterns the classifier should accept, salted with last-write-wins,
/// static-copy, and static-guarded updates it must reject. Plain [`Gen`]
/// programs rarely produce interesting update patterns; this one exists
/// so the differential sweep actually exercises every lattice class.
///
/// Each static is assigned one update *role* up front and every site on
/// it stays role-consistent — mixing kinds on one slot (counter here,
/// min-fold there) is a family mismatch the classifier rightly calls
/// Opaque, and uniform mixing would leave almost no mergeable programs.
#[derive(Clone, Copy)]
enum Role {
    Counter,
    MinFold,
    MaxFold,
    Gated(i64),
    Lww,
    Poison,
}

pub struct MergeGen {
    rng: Rng,
    statics: Vec<(String, Role)>,
    next_local: u32,
}

impl MergeGen {
    pub fn new(seed: u64) -> MergeGen {
        MergeGen {
            rng: Rng::new(seed),
            statics: Vec::new(),
            next_local: 0,
        }
    }

    /// Input-only int expression: constants and inputs, never statics.
    fn input_expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.below(3) == 0 {
            return match self.rng.below(4) {
                0 => format!("{}", self.rng.below(41) as i64 - 20),
                1 => "size".to_owned(),
                2 => "port".to_owned(),
                _ => format!("{}", self.rng.below(1_000)),
            };
        }
        match self.rng.below(5) {
            0 => format!(
                "({} + {})",
                self.input_expr(depth - 1),
                self.input_expr(depth - 1)
            ),
            1 => format!(
                "({} - {})",
                self.input_expr(depth - 1),
                self.input_expr(depth - 1)
            ),
            2 => format!(
                "min({}, {})",
                self.input_expr(depth - 1),
                self.input_expr(depth - 1)
            ),
            3 => format!(
                "max({}, {})",
                self.input_expr(depth - 1),
                self.input_expr(depth - 1)
            ),
            _ => format!("abs({})", self.input_expr(depth - 1)),
        }
    }

    fn input_cond(&mut self) -> String {
        const CMP: [&str; 6] = ["<", "<=", ">", ">=", "==", "!="];
        format!(
            "({} {} {})",
            self.input_expr(1),
            CMP[self.rng.below(CMP.len() as u64) as usize],
            self.input_expr(1)
        )
    }

    pub fn program(mut self) -> String {
        let mut src = String::new();
        let n_statics = 1 + self.rng.below(4);
        for i in 0..n_statics {
            // ~1/4 of slots draw a non-shard-safe role, so roughly half
            // of the generated programs exercise the fallback path.
            let role = match self.rng.below(12) {
                0..=3 => Role::Counter,
                4 | 5 => Role::MinFold,
                6 | 7 => Role::MaxFold,
                8 => Role::Gated(self.rng.below(9) as i64 + 1),
                9 | 10 => Role::Lww,
                _ => Role::Poison,
            };
            let lit = self.rng.below(21) as i64 - 10;
            src.push_str(&format!("static int m{i} = {lit};\n"));
            self.statics.push((format!("m{i}"), role));
        }
        let n = 3 + self.rng.below(6);
        for _ in 0..n {
            let i = self.rng.below(self.statics.len() as u64) as usize;
            let (s, role) = self.statics[i].clone();
            match role {
                Role::Counter => {
                    let e = self.input_expr(2);
                    match self.rng.below(4) {
                        0 => src.push_str(&format!("{s} = {s} - {e};\n")),
                        1 => {
                            // Bump under an input-only gate — still a
                            // counter (the gate reads no static state).
                            let c = self.input_cond();
                            src.push_str(&format!("if ({c}) {{ {s} = {s} + {e}; }}\n"));
                        }
                        _ => src.push_str(&format!("{s} = {s} + {e};\n")),
                    }
                }
                Role::MinFold => {
                    let e = self.input_expr(2);
                    src.push_str(&format!("{s} = min({s}, {e});\n"));
                }
                Role::MaxFold => {
                    let e = self.input_expr(2);
                    src.push_str(&format!("{s} = max({s}, {e});\n"));
                }
                Role::Gated(k) => {
                    // Every site writes the role's constant; differing
                    // constants would honestly degrade to LastWriteWins.
                    let c = self.input_cond();
                    src.push_str(&format!("if ({c}) {{ {s} = {k}; }}\n"));
                }
                Role::Lww => {
                    // Input-dependent overwrite: not shard-safe.
                    let e = self.input_expr(2);
                    src.push_str(&format!("{s} = {e};\n"));
                }
                Role::Poison => {
                    let j = self.rng.below(self.statics.len() as u64) as usize;
                    let t = self.statics[j].0.clone();
                    match self.rng.below(3) {
                        0 => {
                            // Static copy: must classify Opaque.
                            src.push_str(&format!("{s} = {t} + 1;\n"));
                        }
                        1 => {
                            // Control dependence on static state: Opaque.
                            src.push_str(&format!("if ({t} > 0) {{ {s} = {s} + 1; }}\n"));
                        }
                        _ => {
                            // Join laundering: both arms assign the local
                            // input-only values that abstract equal, but
                            // the value picked depends on the static
                            // branch — the later bump is path-dependent
                            // and the classifier must call it Opaque.
                            let k = self.next_local;
                            self.next_local += 1;
                            let e1 = self.input_expr(1);
                            let e2 = self.input_expr(1);
                            src.push_str(&format!(
                                "int p{k} = 0;\n\
                                 if ({t} > 0) {{ p{k} = {e1}; }} else {{ p{k} = {e2}; }}\n\
                                 {s} = {s} + p{k};\n"
                            ));
                        }
                    }
                }
            }
            if self.rng.below(4) == 0 {
                let slot = self.rng.below(64);
                let e = self.input_expr(2);
                src.push_str(&format!("out({slot}, {e});\n"));
            }
        }
        // Read one static so at least one slot escapes.
        let i = self.rng.below(self.statics.len() as u64) as usize;
        src.push_str(&format!("return {};\n", self.statics[i].0));
        src
    }
}
