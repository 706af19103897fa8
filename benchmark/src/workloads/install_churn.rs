//! `install_churn`: E-Code used the other way — compile beside run.
//! Rounds over the sixteen-program corpus in seeded order, each
//! program submitted through the product entry point of its kind.

use std::hint::black_box;

use ecode::{ExecTier, Instance, Program, Type, VerifyLimits};
use pbio::Schema;
use simcore::SimRng;
use sysprof::InteractionRecord;

use super::{RepOut, Whole, Workload};
use crate::corpus::{self, Entry, Kind};
use crate::fingerprint::Fingerprint;
use crate::trace::Tracer;

/// The corpus program that is slow to refuse, and how often it is
/// submitted (once per this many rounds).
const SLOW_REJECT: &str = "reject.fuel";
const SLOW_REJECT_EVERY: usize = 16;

/// The corpus and the submission order of one repetition.
pub struct InstallChurn {
    corpus: Vec<Entry>,
    schema: Schema,
    /// Corpus indices in submission order, all rounds back to back.
    order: Vec<usize>,
}

impl InstallChurn {
    /// Shuffles the submission order of every round from `seed`.
    pub fn new(seed: u64, quick: bool) -> InstallChurn {
        let corpus = corpus::corpus();
        let rounds = if quick { 16 } else { 64 };
        let mut rng = SimRng::seed(seed ^ 0x0125_7a11);
        let mut order = Vec::with_capacity(rounds * corpus.len());
        for r in 0..rounds {
            // The over-budget program is 700 statements by construction
            // and costs about a millisecond to refuse, thirty times a
            // typical install; submitted every round it would be three
            // quarters of the work. Every sixteenth round keeps it near
            // a tenth.
            let mut round: Vec<usize> = (0..corpus.len())
                .filter(|&i| r % SLOW_REJECT_EVERY == 0 || corpus[i].name != SLOW_REJECT)
                .collect();
            rng.shuffle(&mut round);
            order.extend(round);
        }
        let this = InstallChurn {
            corpus,
            schema: InteractionRecord::schema(),
            order,
        };
        // Start-up check: the twelve valid programs install, and the
        // four bad ones are refused for the stated reason.
        for e in &this.corpus {
            let out = corpus::install(e, &this.schema);
            assert!(corpus::as_expected(e, &out), "{}: {out:?}", e.name);
        }
        this
    }

    fn inputs_of(&self, kind: Kind) -> Vec<(&str, Type)> {
        match kind {
            Kind::Cpa => sysprof::EVENT_INPUTS.to_vec(),
            Kind::Filter | Kind::Digest => self
                .schema
                .fields()
                .iter()
                .map(|f| (f.name.as_str(), Type::Int))
                .collect(),
        }
    }
}

impl Workload for InstallChurn {
    fn unit(&self) -> &'static str {
        "installs"
    }

    fn rep(&mut self, tr: &mut Tracer) -> RepOut {
        let n = self.corpus.len();
        let (corpus, schema, order) = (&self.corpus, &self.schema, &self.order);
        // (accepted, as expected) per program, last submission wins —
        // every submission of a program has the same outcome.
        let mut seen = vec![None; n];
        let (wrong, wall_ns) = tr.time("install_churn.rep", |tr| {
            let mut wrong = 0u64;
            for &i in order {
                let open = tr.begin("install");
                let out = corpus::install(&corpus[i], schema);
                tr.end(open);
                wrong += !corpus::as_expected(&corpus[i], &out) as u64;
                seen[i] = Some(out);
            }
            wrong
        });

        let mut fp = Fingerprint::default();
        let mut compiled = 0usize;
        for (e, out) in corpus.iter().zip(&seen) {
            let out = out.as_ref().expect("every program is in the first round");
            compiled += (out.tier == Some(ExecTier::Compiled)) as usize;
            let outcome = match out.tier {
                Some(tier) => format!("accept {tier:?}"),
                None => format!("reject {}", out.error_codes.join(",")),
            };
            fp.put(e.name, outcome);
        }
        let valid = corpus.iter().filter(|e| e.reject_code.is_none()).count();
        RepOut {
            wall_ns,
            units: order.len() as u64,
            attempted: order.len() as u64,
            failed: wrong,
            fingerprint: fp,
            violations: Vec::new(),
            counts: vec![("ecode.compiled_share", compiled as f64 / valid as f64)],
        }
    }

    fn layers(
        &mut self,
        tr: &mut Tracer,
        _whole: Whole,
        _last: &RepOut,
    ) -> Vec<(&'static str, f64)> {
        // The install path split into its stages, each alone over the
        // twelve valid programs; the four rejects timed as a whole.
        let rounds = 50u64;
        let (mut compile_ns, mut verify_ns, mut new_ns, mut reject_ns) = (0u64, 0u64, 0u64, 0u64);
        let (mut valid, mut rejects) = (0u64, 0u64);
        for _ in 0..rounds {
            for e in &self.corpus {
                if e.reject_code.is_some() {
                    let (out, ns) = tr.time("ecode.reject", |_| corpus::install(e, &self.schema));
                    black_box(out);
                    reject_ns += ns;
                    rejects += 1;
                    continue;
                }
                let inputs = self.inputs_of(e.kind);
                let (program, ns) = tr.time("ecode.compile", |_| {
                    Program::compile(&e.source, &inputs).expect("valid program compiles")
                });
                compile_ns += ns;
                let limits = VerifyLimits::with_max_fuel(pubsub::FILTER_FUEL_BUDGET);
                let (verified, ns) = tr.time("ecode.verify", |_| {
                    ecode::verify(&e.source, &inputs, &limits).expect("valid program verifies")
                });
                verify_ns += ns;
                black_box(verified.report().fuel_bound);
                let (inst, ns) = tr.time("ecode.instance_new", |_| Instance::new(&program));
                new_ns += ns;
                black_box(inst.tier());
                valid += 1;
            }
        }
        let us = |ns: u64, n: u64| ns as f64 / n.max(1) as f64 / 1e3;
        vec![
            ("ecode.compile_us", us(compile_ns, valid)),
            ("ecode.verify_us", us(verify_ns, valid)),
            ("ecode.instance_new_us", us(new_ns, valid)),
            ("ecode.reject_us", us(reject_ns, rejects)),
        ]
    }
}
