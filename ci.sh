#!/usr/bin/env bash
# Local CI: formatting, lints (deny warnings), static analysis, and the
# full test suite. Run from the repo root. Mirrors what a hosted
# pipeline would do.
#
#   ./ci.sh              full pipeline
#   ./ci.sh --analyze    only the static gates: analyzer + one-receiver/one-switch/one-daemon/one-price-list checks (fast pre-commit check)
#   ./ci.sh --kprof      only Kprof: its unit tests, matcher equivalence + zero-alloc, CPA dispatch, node_hotpath + cluster_kv/cluster_iperf fingerprints
#   ./ci.sh --lpa        only the LPA: one-switch check, unit tests + proptests + corpus, ARM/level tests
#   ./ci.sh --scenarios  only the scenario library: one-runner + one-class-stat + one-draw checks, golden diagnoses + chaos matrix, cluster_kv/cluster_iperf/gpa_query fingerprints
#   ./ci.sh --merge      only the shard-safety analysis + sharded evaluation path
#   ./ci.sh --digest     only the digest engine: fold + replica differential + GPA wiring
#   ./ci.sh --jit        only the compiled execution tier: lowering + one-recognizer + borrowed-names + flat-IR checks, tier sweeps, verifier transcript, allocation budgets
#   ./ci.sh --substrate  only the simulator under the monitor: one-price-list + one-draw checks, calendar, simnet (clock, link), kprof + simos (the hit), fingerprints
#   ./ci.sh --gpa        only the GPA's query side: correlation + detector tests, gpa_query fingerprints
#   ./ci.sh --daemon     only the dissemination daemon: one-daemon check, daemon + simos tests, chaos, cluster fingerprints
#   ./ci.sh --ingest     only the GPA's ingest path: one-varint-reader check, varint reader, histogram binning, class statistic, store, receiver + its allocations, hostile bytes, receive ledger cuts, gpa_wire fingerprints
#   ./ci.sh --send       only the daemon's send half: one-varint-writer check, varint writer, row codec, hub publish, double buffer, daemon, allocations on a warm wake, cluster ledger cuts, cluster_kv/cluster_iperf/node_hotpath fingerprints
#   ./ci.sh --bench-history  append the full-size sysbench suite results under benchmark/results/ to BENCH_history.jsonl
#   ./ci.sh --bench-history --pairs DIR [PARENT]  append alternating parent/change single-workload runs (DIR/<parent|change>.<workload>.seed<N>.<k>.json) instead, with a per-metric pair summary
set -euo pipefail
cd "$(dirname "$0")"

run_analyzer() {
    echo "==> sysprof-analyzer (determinism, unsafe hygiene, unreached public surface; hard gate)"
    # Exit 1 = unwaived findings, 2 = bad analyzer.toml; both fail CI.
    cargo run -q -p sysprof-analyzer -- --quiet
}

check_one_lowering() {
    # `ecode::ir::lower` is the one bytecode→tree lowering; a backend or
    # the merge analysis naming a stack op has started walking bytecode
    # on its own.
    if grep -nE '\bOp::|vm::Op' crates/ecode/src/jit.rs crates/ecode/src/batch.rs \
        crates/ecode/src/analysis/merge.rs; then
        echo "jit.rs / batch.rs / analysis/merge.rs must consume ecode::ir, not stack" \
            "bytecode; the only Op walkers are the interpreter + validate (vm.rs)," \
            "ir::lower, analysis/fuel.rs, Program::used_inputs and the emitter (compile.rs)" >&2
        return 1
    fi
}

check_borrowed_names() {
    # The E-Code front end works on names borrowed from the program text
    # (inputs resolve through the host's own slice): a token, expression
    # or statement owning a `String` copies every identifier it carries,
    # once per pass, and an install pays for its names, not its program.
    if ! awk '
        /^#\[cfg\(test\)\]/ { nextfile }
        /^pub (enum|struct) (Tok|Token|Expr|Stmt)[^A-Za-z0-9_]/ { inside = 1 }
        inside && /(^|[^A-Za-z0-9_])String([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        inside && /^}/ { inside = 0 }
        END { exit bad }
    ' crates/ecode/src/lexer.rs crates/ecode/src/parser.rs; then
        echo "lexer.rs's Tok/Token and parser.rs's Expr/Stmt borrow names from the source" \
            "(&'src str); an owned String there copies every identifier per pass" >&2
        return 1
    fi
}

check_flat_ir() {
    # The lowering's trees live in one node table per program
    # (`ecode::ir::Ir::nodes`): operands, statements, terminators and
    # carries name their trees by id. A boxed tree node in the lowering
    # or a backend allocates per expression node again, and a backend
    # that merges blocks would deep-copy trees instead of adding the
    # nodes a substitution rewrites.
    if ! awk '
        /^#\[cfg\(test\)\]/ { nextfile }
        /^[[:space:]]*\/\// { next }
        /Box<(Ex|Node)>/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit bad }
    ' crates/ecode/src/ir.rs crates/ecode/src/jit.rs crates/ecode/src/batch.rs \
        crates/ecode/src/analysis/merge.rs; then
        echo "ecode's IR is one node table (ir::Node, ids into Ir::nodes): ir.rs, jit.rs," \
            "batch.rs and analysis/merge.rs hold no Box<Ex>/Box<Node> outside their tests" >&2
        return 1
    fi
}

check_one_varint_reader() {
    # PBIO has one LEB128 reader, `pbio::varint::read_u64` (straight-line
    # for one to three bytes, a checked loop past them), and every
    # decoder reads through it. A `& 0x7f` outside varint.rs and the
    # tests is a second shift-accumulate loop: a reader whose errors and
    # speed drift from the one the proptests pin.
    if ! awk '
        FNR == 1 { skip = 0 }
        /^#\[cfg\(test\)\]/ { skip = 1 }
        skip || /^[[:space:]]*\/\// { next }
        /&[[:space:]]*0[xX]7[fF]([^0-9a-fA-F_]|$)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit bad }
    ' $(find crates -path '*/src/*' -name '*.rs' ! -path crates/pbio/src/varint.rs | sort); then
        echo "LEB128 is decoded by pbio::varint::read_u64 only: no '& 0x7f' in non-test" \
            "code under crates/ outside crates/pbio/src/varint.rs" >&2
        return 1
    fi
}

check_one_varint_writer() {
    # PBIO has one LEB128 writer, `pbio::varint::write_u64` (straight-line
    # for one to three bytes, a loop past them), and every encoder, the
    # row codec included, writes through it. A `| 0x80` or a `>>= 7`
    # outside varint.rs and the tests is a second write loop: bytes and
    # speed the proptest against the per-byte reference does not pin.
    if ! awk '
        FNR == 1 { skip = 0 }
        /^#\[cfg\(test\)\]/ { skip = 1 }
        skip || /^[[:space:]]*\/\// { next }
        /\|[[:space:]]*0[xX]80([^0-9a-fA-F_]|$)|>>=[[:space:]]*7([^0-9_]|$)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit bad }
    ' $(find crates -path '*/src/*' -name '*.rs' ! -path crates/pbio/src/varint.rs | sort); then
        echo "LEB128 is encoded by pbio::varint::write_u64 only: no '| 0x80' or '>>= 7' in" \
            "non-test code under crates/ outside crates/pbio/src/varint.rs" >&2
        return 1
    fi
}

check_one_recognizer() {
    # `spec_node` is the compiled tier's one recognizer: outside the unit
    # tests the form classifiers are called from it and from each other
    # only (`Whole` is assembled from its nodes, not re-parsed), and
    # nothing after `merge_chains`' substitution helpers sees a carried
    # stack value.
    if ! awk '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/ {
            fn = $0; sub(/^.*fn /, "", fn); sub(/[^a-z_0-9].*$/, "", fn)
        }
        /^fn subst_step/ { substituting = 1 }
        substituting && /^}/ { substituting = 0; past = 1; next }
        /as_(valk|fsteps|gupd|outk)\(/ && fn !~ /^(spec_node|as_valk|as_fsteps|as_gupd|as_outk)$/ ||
            past && /(Ex|Node)::Carry/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit bad }
    ' crates/ecode/src/jit.rs; then
        echo "jit.rs classifies a block once, in spec_node: as_valk/as_fsteps/as_gupd/as_outk" \
            "are called from it and from each other only, and Node::Carry is named only by" \
            "merge_chains and its substitution helpers" >&2
        return 1
    fi
}

check_one_receiver() {
    # `pubsub::reliable::{Sender, Receiver}` are the two halves of the
    # reliable stream; a subscriber or the daemon naming what is under
    # them (outside its unit tests and comments) has started a copy.
    local f found=0
    for f in $(find crates/core/src crates/apps/src -name '*.rs' | sort); do
        if awk '/#\[cfg\(test\)\]/ { exit }
                !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E '\b(decode_batch|Reassembler|ResendBuffer|ChannelDecoder)\b|\bsplit_frames\('; then
            found=1
        fi
    done
    if [[ $found == 1 ]]; then
        echo "crates/core and crates/apps reach the reliable stream only through" \
            "pubsub::reliable::{Sender, Receiver} (and sysprof::receive_stream)" >&2
        return 1
    fi
}

check_one_runner() {
    # `scenario.rs` is the workload kit: its runner holds the one
    # `WorldBuilder::new` and the one `SysProf::deploy` of apps + bench,
    # and its `Link` the one retry token. A workload naming any of them
    # (outside its unit tests and comments) has started its own
    # build->deploy->run sequence or its own retransmit loop.
    local f found=0
    for f in $(find crates/apps/src crates/bench/src -name '*.rs' ! -path crates/apps/src/scenario.rs | sort); do
        if awk '/#\[cfg\(test\)\]/ { exit }
                !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E 'SysProf::deploy|WorldBuilder::new|const TOK_RETRY'; then
            found=1
        fi
    done
    if [[ $found == 1 ]]; then
        echo "crates/apps and crates/bench build worlds, deploy the monitor and retry" \
            "RPCs only through crates/apps/src/scenario.rs (ScenarioSpec's runner, Link)" >&2
        return 1
    fi
}

check_one_switch() {
    # `LpaConfig::level` is the one level setting, `SysProf::reconfigure`
    # the one runtime entry, and an analyzer is off when its interest is
    # empty. Non-test code naming the deleted gate, booleans or controller
    # type has started a second switch. In lpa.rs a pid's open-window
    # count changes only in the attribution window's methods (`impl
    # Window`): anything else calling a method on the table has started a
    # second copy of the bookkeeping.
    local f found=0
    for f in $(find crates -path '*/src/*' -name '*.rs' | sort); do
        if awk '/#\[cfg\(test\)\]/ { exit }
                !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E '\b(set_active|track_scheduling|class_only|Controller)\b'; then
            found=1
        fi
    done
    if ! awk '
        /#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /^impl Window / { inside = 1 }
        inside && /^}/ { inside = 0; next }
        !inside && /open_windows[[:space:]]*[.[]/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit bad }
    ' crates/core/src/lpa.rs; then
        found=1
    fi
    if [[ $found == 1 ]]; then
        echo "the LPA's level is LpaConfig::level, changed at run time through" \
            "SysProf::reconfigure (no Kprof on/off gate), and lpa.rs changes" \
            "open-window counts only inside impl Window" >&2
        return 1
    fi
}

check_one_class_stat() {
    # `records::ClassStats` is the one per-class statistic (the LPA's
    # flush window, the GPA's table) and `sysprof::detect` the one code
    # that turns a tier's summaries into an indictment. Non-test code
    # defining a private aggregate or naming the deleted helpers has
    # started a second copy.
    local f found=0
    for f in $(find crates -path '*/src/*' -name '*.rs' | sort); do
        if awk '/#\[cfg\(test\)\]/ { exit }
                !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E '\b(struct|enum|type)[[:space:]]+ClassAggr\b|\b(class_means|outlier_and_median|downstream_share_pct)\b'; then
            found=1
        fi
    done
    if [[ $found == 1 ]]; then
        echo "per-class statistics are records::ClassStats, and a scenario's indictment" \
            "comes from sysprof::detect over Gpa::tier" >&2
        return 1
    fi
}

check_one_daemon() {
    # Each monitored node has one dissemination object: `Daemon` is its
    # hook *and* answers its CONTROL_PORT (no second control route), and
    # what it publishes is `records::TOPICS`. Outside unit tests and
    # comments: nothing under crates/ defines a `ControlSink` or makes
    # `Daemon` a `KernelSink`; crates/core/src builds a
    # `ControlMsg::Subscribe` only in `SysProf::subscribe` (a match-arm
    # pattern, closed by `} =>`, is not a build) and names a topic
    # constant only in records.rs and lib.rs.
    local f found=0
    for f in $(find crates -path '*/src/*' -name '*.rs' | sort); do
        if awk '/#\[cfg\(test\)\]/ { exit }
                !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E '\b(struct|enum|type|trait)[[:space:]]+ControlSink\b|impl[[:space:]]+([a-z_]+::)*KernelSink[[:space:]]+for[[:space:]]+Daemon\b'; then
            found=1
        fi
    done
    for f in $(find crates/core/src -name '*.rs' | sort); do
        if ! awk '
            /#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/ {
                fn = $0; sub(/^.*fn /, "", fn); sub(/[^a-z_0-9].*$/, "", fn)
            }
            open {
                if (/^[[:space:]]*}/) { if (!/^[[:space:]]*} =>/) { print site; bad = 1 }; open = 0 }
                next
            }
            /ControlMsg::Subscribe([^A-Za-z0-9_]|$)/ && !/let[[:space:]]+ControlMsg::Subscribe/ &&
                !(FILENAME ~ /\/deploy\.rs$/ && fn == "subscribe") && !/} =>/ {
                site = FILENAME ":" FNR ": " $0
                if (/ControlMsg::Subscribe \{[[:space:]]*$/) { open = 1 } else { print site; bad = 1 }
            }
            END { exit bad }
        ' "$f"; then
            found=1
        fi
        case "$f" in crates/core/src/records.rs | crates/core/src/lib.rs) continue ;; esac
        if awk '/#\[cfg\(test\)\]/ { exit }
                !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E '\b(INTERACTION_TOPIC|LOAD_TOPIC)\b'; then
            found=1
        fi
    done
    if [[ $found == 1 ]]; then
        echo "one daemon per node: Daemon answers its own CONTROL_PORT (no ControlSink, no" \
            "KernelSink for Daemon), SysProf::subscribe is the one Subscribe builder in core," \
            "and the topics are records::TOPICS (named only in records.rs and lib.rs)" >&2
        return 1
    fi
}

check_one_price_list() {
    # `simos::cost` is the simulated machine's one price list: outside
    # their unit tests and comments, the kernel's files (node.rs, world.rs,
    # world/) name no `SimDuration::from_*` literal and no `costs.` path,
    # so a new charge or wait is a named constant there, not a per-node
    # field or a literal at its call site.
    local f found=0
    for f in crates/simos/src/node.rs crates/simos/src/world.rs \
        $(find crates/simos/src/world -name '*.rs' | sort); do
        if awk '/#\[cfg\(test\)\]/ { exit }
                !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E 'SimDuration::from_|\bcosts\.'; then
            found=1
        fi
    done
    if [[ $found == 1 ]]; then
        echo "the simulated kernel charges and waits what simos::cost names: no" \
            "SimDuration literal or costs. path in simos's node.rs, world.rs or world/" >&2
        return 1
    fi
}

check_one_draw() {
    # Shaped random draws live in `simcore::rng`, where whatever a
    # distribution needs once is prepared once (a `Zipf` table): outside
    # their unit tests and comments, the scenario library, the kernel and
    # the network call no `powf`, `powi`, `.ln()` or `.exp()`, so a
    # transcendental per request or per packet cannot come back unseen.
    local f found=0
    for f in $(find crates/apps/src crates/simos/src crates/simnet/src -name '*.rs' | sort); do
        if awk '/#\[cfg\(test\)\]/ { exit }
                !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f" |
            grep -E '\bpow[fi]\b|\.(ln|exp)\(\)'; then
            found=1
        fi
    done
    if [[ $found == 1 ]]; then
        echo "one draw: apps, simos and simnet take shaped draws from simcore::rng" \
            "(SimRng::exponential, SimRng::zipf over a prepared Zipf), not powf/powi/ln/exp" >&2
        return 1
    fi
}

# The substrate's own gates, shared by --substrate and the full run: the
# calendar's model proptests, simnet (the clock's perfect-rate fast path
# and the link's u64 arithmetic against the general formulas), kprof and
# simos (a hit is built in simos and handed to kprof's hook, and simos
# pins the event stream that hand-off delivers), the two count-not-clock pins
# (heap pushes per hit, allocations per packet), the replay referees, and
# the sysbench quick fingerprints of both cluster workloads on the seed
# and the held-out seed (byte-identical or the harness exits nonzero).
substrate_steps=(
    "==> one price list (the kernel's charges and waits are simos::cost constants)"
    "check_one_price_list"
    "==> one draw (no powf/powi/ln/exp in apps, simos or simnet; shaped draws are simcore::rng's)"
    "check_one_draw"
    "==> substrate: calendar + simnet + kprof + simos (defer and pop_until vs the linear model, the clock's and the link's fast paths, the hook, the pinned event stream, crash after a stretch)"
    "cargo test -q -p simcore -p simnet -p kprof -p simos"
    "==> substrate: allocations per packet, heap pushes per hit (counts, not clocks)"
    "cargo test -q --release -p simos --test alloc_budget"
    "cargo test -q --test calendar_count"
    "==> substrate: replay referees"
    "cargo test -q --test determinism"
    "cargo test -q --test chaos"
    "==> substrate: sysbench quick fingerprints (cluster_kv, cluster_iperf; seeds 7, 11)"
    "check_fingerprints cluster_kv cluster_iperf"
)

# The sysbench quick fingerprints of each named workload on the seed and
# the held-out seed, byte for byte (the harness exits nonzero on a
# mismatch): cluster_kv and cluster_iperf pin every simulated outcome of
# the scenario defaults they run; gpa_query pins correlate()'s paths and
# the dump; node_hotpath every Kprof counter and what the LPA, the CPA
# and the send side made of the events; gpa_wire and gpa_wire_large what
# wire batches become in the store and the digest. Every seed runs even
# after one fails, and benchmark/Cargo.lock, which the bench build
# rewrites, is put back as committed either way.
check_fingerprints() {
    local wl seed status=0
    for wl in "$@"; do
        for seed in 7 11; do
            benchmark/run.sh --quick --workload "$wl" --seed "$seed" --seconds 1 --trace 0 \
                >/dev/null || status=$?
        done
    done
    git checkout -q -- benchmark/Cargo.lock
    return "$status"
}

# The committed perf trajectory: one line per workload of every full-size
# sysbench suite result under benchmark/results/ (git-ignored;
# `benchmark/run.sh [--seed N]` writes sysbench.seed<N>.json there, and
# `--quick` a sysbench.quick.seed<N>.json this skips) appended to
# BENCH_history.jsonl: work_per_s's median, quartiles, minimum and run
# count, the host's nproc, the commit measured (`-dirty` when tracked
# files differ from it), and `noisy` when the quartile spread exceeds 10 %
# of the median, else `quiet`. Each line also records `calib_ns`, the
# host's speed when it was appended (`figures --exp calib`: ns per
# iteration of a fixed integer loop, best of 21). Each appended line's
# median is printed as a ratio to the last line for the same workload,
# seed and size in the committed BENCH_history.jsonl, with both lines'
# host flags: raw, and normalised by the two lines' calibration figures
# (median × calib_ns, so a host that ran slower does not read as slower
# code) when the committed line has one. Reads benchmark/ and writes
# nothing there.
bench_history() {
    local commit file lines committed calib found=0
    if ! command -v jq >/dev/null; then
        echo "--bench-history needs jq" >&2
        return 1
    fi
    cargo build -q --release --offline -p sysprof-bench --bin figures
    calib="$(target/release/figures --exp calib | awk '/^calib_ns_per_iter/ { print $2 }')"
    echo "host calibration: $calib ns per iteration"
    commit="$(git rev-parse --short HEAD)"
    if ! git diff --quiet HEAD; then
        commit="$commit-dirty"
    fi
    committed="$(mktemp)"
    git show HEAD:BENCH_history.jsonl >"$committed" 2>/dev/null || true
    for file in benchmark/results/sysbench.seed*.json; do
        [[ -e "$file" ]] || continue
        found=1
        lines="$(jq -c --arg commit "$commit" --arg source "$(basename "$file")" \
            --argjson calib "$calib" '
            . as $doc | .workloads | to_entries[] | .value.metrics.work_per_s as $m | {
                commit: $commit, source: $source, workload: .key, seed: $doc.seed,
                size: $doc.size, metric: "work_per_s", unit: $m.unit, median: $m.median,
                q1: $m.q1, q3: $m.q3, min: $m.min, n: $m.n, nproc: $doc.nproc,
                host: (if $m.q3 - $m.q1 > 0.10 * $m.median then "noisy" else "quiet" end),
                calib_ns: $calib
            }' "$file")"
        printf '%s\n' "$lines" >>BENCH_history.jsonl
        echo "appended $file"
        printf '%s\n' "$lines" | jq -r --slurpfile old "$committed" '
            . as $new
            | [$old[] | select(.workload == $new.workload and .seed == $new.seed
                and .size == $new.size)] | last as $prev
            | "  \($new.workload) seed \($new.seed) \($new.size): median \($new.median) (\($new.host))"
              + (if $prev == null then ", no committed line to compare"
                else " = \($new.median / $prev.median * 1000 | round / 1000)"
                    + " x \($prev.commit)'"'"'s \($prev.median) (\($prev.host // "unflagged"))"
                    + (if $prev.calib_ns == null then ", no host marker on that line"
                        else ", \($new.median * $new.calib_ns / ($prev.median * $prev.calib_ns)
                            * 1000 | round / 1000) normalised by host speed"
                            + " (\($new.calib_ns) vs \($prev.calib_ns) ns/iter)"
                        end)
                end)'
    done
    rm -f "$committed"
    if [[ $found == 0 ]]; then
        echo "no full-size sysbench suite result under benchmark/results/: run benchmark/run.sh first" >&2
        return 1
    fi
}

# The pairs input of --bench-history: `./ci.sh --bench-history --pairs
# DIR [PARENT]` reads alternating single-workload runs instead of suite
# files. DIR holds one file per `sysbench --workload` run (its output;
# the last line is the result JSON), named
# <label>.<workload>.seed<N>.<k>.json: label `parent` or `change`, k the
# pair the run belongs to. One line per label, workload and seed is
# appended to BENCH_history.jsonl in the pair-summary shape of the
# suite's lines: work_per_s's median, quartiles (the harness's exclusive
# method), minimum and run count, nproc, the noisy/quiet flag and
# calib_ns. The parent's lines carry PARENT as their commit (default
# HEAD^), the change's HEAD (`-dirty` when tracked files differ). Each
# workload and seed then prints, per end-to-end metric, the change's
# median as a ratio to the parent's, how many pairs the change won, and
# whether the gap between the medians exceeds the parent's quartile
# spread.
bench_history_pairs() {
    local dir="$1" parent="${2:-HEAD^}" change calib f base label workload seed k runs
    if ! command -v jq >/dev/null; then
        echo "--bench-history needs jq" >&2
        return 1
    fi
    if [[ ! -d "$dir" ]]; then
        echo "--pairs needs a directory of <label>.<workload>.seed<N>.<k>.json runs" >&2
        return 1
    fi
    cargo build -q --release --offline -p sysprof-bench --bin figures
    calib="$(target/release/figures --exp calib | awk '/^calib_ns_per_iter/ { print $2 }')"
    echo "host calibration: $calib ns per iteration"
    parent="$(git rev-parse --short "$parent")"
    change="$(git rev-parse --short HEAD)"
    if ! git diff --quiet HEAD; then
        change="$change-dirty"
    fi
    runs="$(mktemp)"
    for f in "$dir"/*.json; do
        [[ -e "$f" ]] || continue
        base="$(basename "$f" .json)"
        IFS=. read -r label workload seed k <<<"$base"
        if [[ ! "$label" =~ ^(parent|change)$ || "$seed" != seed* || -z "$k" ]]; then
            echo "skipping $f: not <parent|change>.<workload>.seed<N>.<k>.json" >&2
            continue
        fi
        tail -n 1 "$f" | jq -c --arg side "$label" --arg workload "$workload" \
            --argjson seed "${seed#seed}" --arg k "$k" \
            '{side: $side, workload: $workload, seed: $seed, k: $k, correct: .correct,
              metrics: (.metrics | map_values(.value)), unit: .metrics.work_per_s.unit}' >>"$runs"
    done
    if [[ ! -s "$runs" ]]; then
        rm -f "$runs"
        echo "no runs under $dir" >&2
        return 1
    fi
    # A sample's n, minimum, quartiles (the harness's exclusive method)
    # and median.
    local summary='
        def summary: sort as $v | length as $n
            | def q($i): if $n < 2 then $v[0] else
                  ([([($i * ($n + 1) / 4 | floor), 1] | max), $n - 1] | min) as $j
                  | ($i * ($n + 1) - $j * 4) as $d
                  | ($v[$j - 1] * (4 - $d) + $v[$j] * $d) / 4 end;
              { n: $n, min: $v[0], q1: q(1), q3: q(3),
                median: (if $n % 2 == 1 then $v[($n - 1) / 2]
                         else ($v[$n / 2 - 1] + $v[$n / 2]) / 2 end) };'
    jq -s -r --arg parent "$parent" --arg change "$change" --argjson calib "$calib" \
        --argjson nproc "$(nproc)" --arg source "pairs: alternating runs, parent $parent vs change" "$summary"'
        group_by([.workload, .seed]) | .[] | . as $runs
        | [["parent", $parent], ["change", $change]][] as [$side, $commit]
        | ($runs | map(select(.side == $side))) | select(length > 0)
        | .[0] as $r | map(.metrics.work_per_s) | summary as $s
        | { commit: $commit, source: $source, workload: $r.workload, seed: $r.seed, size: "full",
            metric: "work_per_s", unit: $r.unit, median: $s.median, q1: $s.q1, q3: $s.q3,
            min: $s.min, n: $s.n, nproc: $nproc,
            host: (if $s.q3 - $s.q1 > 0.10 * $s.median then "noisy" else "quiet" end),
            calib_ns: $calib } | tojson' "$runs" >>BENCH_history.jsonl
    echo "appended the pairs under $dir to BENCH_history.jsonl"
    jq -s -r "$summary"'
        def r3: . * 1000 | round / 1000;
        def short: if fabs >= 100 then round else . * 1e5 | round / 1e5 end;
        group_by([.workload, .seed]) | .[] | . as $runs
        | ($runs | group_by(.k) | map(select(length == 2))) as $pairs
        | "\($runs[0].workload) seed \($runs[0].seed): \($runs | map(select(.side == "parent"))
            | length) parent, \($runs | map(select(.side == "change")) | length) change runs, "
          + "\($runs | map(select(.correct != true)) | length) not correct",
          ([["work_per_s", 1], ["setup_s", -1], ["peak_rss_mb", -1]][] as [$m, $better]
            | ($runs | map(select(.side == "parent") | .metrics[$m]) | summary) as $p
            | ($runs | map(select(.side == "change") | .metrics[$m]) | summary) as $c
            | select($p.n > 0 and $c.n > 0)
            | ($pairs | map(select((map(select(.side == "change"))[0].metrics[$m]
                - map(select(.side == "parent"))[0].metrics[$m]) * $better > 0)) | length) as $wins
            | ($c.median - $p.median | fabs) as $gap | ($p.q3 - $p.q1) as $iqr
            | "  \($m): change/parent median \($c.median / $p.median | r3)"
              + " (\($p.median | short) -> \($c.median | short)),"
              + " change better in \($wins) of \($pairs | length) pairs,"
              + if $iqr == 0 then " parent IQR 0, median gap \($gap | short)"
                else " median gap \($gap / $iqr | r3) x the parent IQR" end)' "$runs"
    rm -f "$runs"
}

# Fast paths for iterating on one slice of the system: each runs only
# the steps listed for its flag below — skipping fmt/clippy and the
# full suite — then prints "<LABEL> OK". A step that starts with "==>"
# is a heading; anything else is a command line (plain words, no quoting).
fast_path() {
    local label="$1" step
    shift
    for step in "$@"; do
        if [[ "$step" == "==>"* ]]; then
            echo "$step"
        else
            $step
        fi
    done
    echo "$label OK"
    exit 0
}

# The GPA end of the digest, shared by --digest and --merge.
gpa_digest_steps=(
    "==> GPA (core): digest wiring, eviction window, sweep vs all-pairs, work bound"
    "cargo test -q -p sysprof gpa::"
    "==> sharded GPA end-to-end (kvstore differential)"
    "cargo test -q --test sharded_gpa"
)

case "${1:-}" in
--analyze)
    fast_path ANALYZE run_analyzer \
        "==> one receiver (core and apps reach the stream through Sender/Receiver)" \
        check_one_receiver \
        "==> one switch (LpaConfig::level; open-window counts change in Window only)" \
        check_one_switch \
        "==> one daemon (Daemon answers CONTROL_PORT; topics are records::TOPICS)" \
        check_one_daemon \
        "==> one price list (the kernel's charges and waits are simos::cost constants)" \
        check_one_price_list
    ;;
--daemon)
    # The dissemination daemon: its wakes and its control port, the
    # simos route that hands it both, the remote-filter NACK path, the
    # chaos matrix and the cluster fingerprints its messages feed.
    fast_path DAEMON \
        "==> one daemon (Daemon answers CONTROL_PORT; topics are records::TOPICS)" \
        check_one_daemon \
        "==> daemon unit tests (control messages, endpoint cap) and simos" \
        "cargo test -q -p sysprof daemon::" \
        "cargo test -q -p simos" \
        "==> remote filters and the chaos matrix" \
        "cargo test -q --test verifier_integration" \
        "cargo test -q --test chaos" \
        "==> sysbench quick fingerprints (cluster_kv, cluster_iperf; seeds 7, 11)" \
        "check_fingerprints cluster_kv cluster_iperf"
    ;;
--kprof)
    # Kprof: the registry's unit tests (the hook's bookkeeping order and
    # cost accounting), the compiled matcher against the predicate, the
    # zero-allocation emit loops, the CPA behind the dispatch (release),
    # then the node_hotpath fingerprints, and the cluster ones, whose
    # every hit simos builds and hands to the hook.
    fast_path KPROF \
        "==> kprof: unit tests, matcher equivalence, zero-alloc (emit and suppressed hits)" \
        "cargo test -q -p kprof" \
        "==> CPA dispatch (core, release)" \
        "cargo test -q --release -p sysprof cpa::" \
        "==> sysbench quick fingerprints (node_hotpath, cluster_kv, cluster_iperf; seeds 7, 11)" \
        "check_fingerprints node_hotpath cluster_kv cluster_iperf"
    ;;
--lpa)
    # The LPA: both trackers' unit tests, the proptests and the seeded
    # corpus pinned at the parent's records (release), ARM hints end to
    # end, the runtime/deploy-time level tests and the scenario rungs.
    fast_path LPA \
        "==> one switch (LpaConfig::level; open-window counts change in Window only)" \
        check_one_switch \
        "==> LPA unit tests (service ports pruned in Kprof), proptests and seeded corpus (release)" \
        "cargo test -q --release -p sysprof lpa::" \
        "==> ARM hints, overhead control, the LPA rungs" \
        "cargo test -q --test arm_hints" \
        "cargo test -q --test overhead_control" \
        "cargo test -q --test scenarios coarser_lpa_rungs"
    ;;
--scenarios)
    # The scenario library: golden diagnoses + chaos matrix and the apps
    # crate's own tests.
    fast_path SCENARIOS \
        "==> one runner (apps and bench build, deploy and retry through scenario.rs)" \
        check_one_runner \
        "==> one class statistic (ClassStats; indictments through sysprof::detect)" \
        check_one_class_stat \
        "==> one draw (no powf/powi/ln/exp in apps, simos or simnet; shaped draws are simcore::rng's)" \
        check_one_draw \
        "==> scenario tests (golden diagnoses + chaos matrix)" \
        "cargo test -q -p sysprof-apps" \
        "cargo test -q --test scenarios" \
        "==> sysbench quick fingerprints of the scenario defaults (cluster_kv, cluster_iperf, gpa_query; seeds 7, 11)" \
        "check_fingerprints cluster_kv cluster_iperf gpa_query"
    ;;
--digest)
    # The digest engine: the fold and the K-replica differential against
    # the scalar VM (unit sweep + proptest), its allocation discipline,
    # the GPA wiring, and the kvstore differential.
    fast_path DIGEST \
        "==> digest engine: fold + replica differential (pubsub)" \
        "cargo test -q -p pubsub digest" \
        "cargo test -q --release -p pubsub --test zero_alloc" \
        "${gpa_digest_steps[@]}"
    ;;
--jit)
    # The compiled execution tier and the lowering under it: the IR's
    # partition + path-fuel check and bail reasons, the jit unit +
    # fallback tests, the generative sweeps (compiled vs reference, and
    # the column backend vs the scalar row loop), the hostile-source
    # limits, the allocation-discipline proofs, the CPA dispatch wiring
    # and the node ledger's pipeline cuts.
    fast_path JIT \
        "==> one lowering (no stack ops in the backends; IR partition, path fuel, bails)" \
        check_one_lowering \
        "cargo test -q -p ecode ir::" \
        "==> one recognizer (forms are classified in spec_node; no carries past merge_chains)" \
        check_one_recognizer \
        "==> borrowed names (the front end's tokens and AST own no String)" \
        check_borrowed_names \
        "==> flat IR (one node table per lowering; no boxed tree nodes)" \
        check_flat_ir \
        "==> compiled-tier lowering + fallback tests (ecode)" \
        "cargo test -q -p ecode jit" \
        "cargo test -q -p ecode closures_are_built" \
        "==> generative sweeps (compiled vs per-op reference, batch vs scalar rows)" \
        "cargo test -q -p ecode --test verifier generated" \
        "==> the verifier's transcript (FNV over every sweep outcome) and unused-static order" \
        "cargo test -q -p ecode --test verifier transcript" \
        "cargo test -q -p ecode --test verifier w0003" \
        "==> hostile source (parse error, not a stack overflow; NACK, not an abort); built first, so the small stack reaches the tests and not rustc" \
        "cargo test -q --no-run -p ecode --test verifier" \
        "cargo test -q --no-run --test gpa_query" \
        "env RUST_MIN_STACK=262144 cargo test -q -p ecode --test verifier hostile" \
        "cargo test -q --test verifier_integration hostile" \
        "env RUST_MIN_STACK=262144 cargo test -q --test gpa_query hostile" \
        "==> allocation discipline (counting allocator, release; the run, verify per input, the CPA host)" \
        "cargo test -q --release -p ecode --test zero_alloc" \
        "cargo test -q --release -p sysprof --test cpa_zero_alloc" \
        "==> CPA dispatch + filter wiring (core, pubsub) and the node ledger's cuts (bench)" \
        "cargo test -q -p sysprof cpa" \
        "cargo test -q -p pubsub publish" \
        "cargo test -q -p sysprof-bench node"
    ;;
--substrate)
    fast_path SUBSTRATE "${substrate_steps[@]}"
    ;;
--gpa)
    # The GPA's query side: the store, the sweep against the all-pairs
    # reference and its work bound, borrowed paths, the detector over
    # them, the query port and the cross-tier correlation end to end,
    # then the gpa_query fingerprints.
    fast_path GPA \
        "==> GPA (core): store, correlate() vs all-pairs, work bound, borrowed paths" \
        "cargo test -q -p sysprof gpa::" \
        "==> detector (core): the five signals over class summaries and paths" \
        "cargo test -q -p sysprof detect::" \
        "==> query port and end-to-end correlation" \
        "cargo test -q --test gpa_query" \
        "cargo test -q --test end_to_end" \
        "==> sysbench quick fingerprints (gpa_query; seeds 7, 11)" \
        "check_fingerprints gpa_query"
    ;;
--ingest)
    # The GPA's ingest path: exact histogram binning against libm, the
    # class statistic against its five-accumulator reference, the store's
    # caps, the one varint reader, the receiver's in-order path and its
    # allocations, mutated wire bytes, the receive ledger's cuts, then the
    # gpa_wire fingerprints.
    fast_path INGEST \
        check_one_varint_reader \
        "==> varint reader against its per-byte reference (pbio)" \
        "cargo test -q -p pbio varint" \
        "==> histogram binning (simcore)" \
        "cargo test -q -p simcore stats" \
        "==> class statistic and store (core)" \
        "cargo test -q -p sysprof -- records:: gpa::" \
        "==> receiver (pubsub) and hostile bytes" \
        "cargo test -q -p pubsub reliable" \
        "cargo test -q --release -p pubsub --test zero_alloc" \
        "cargo test -q --test untrusted_bytes" \
        "==> the receive ledger's cuts (bench)" \
        "cargo test -q --release -p sysprof-bench gpa" \
        "==> sysbench quick fingerprints (gpa_wire, gpa_wire_large; seeds 7, 11)" \
        "check_fingerprints gpa_wire gpa_wire_large"
    ;;
--send)
    # The daemon's send half: the one varint writer against its per-byte
    # reference, the row codec against RecordWriter, one publish per
    # wake against a publish_raw per row, the drain, the daemon's wakes
    # and their allocations, the cluster ledger's cuts, then the
    # fingerprints of every workload that publishes.
    fast_path SEND \
        "==> one varint writer (LEB128 is encoded by pbio::varint::write_u64 only)" \
        check_one_varint_writer \
        "==> varint writer and reader against their per-byte references, row codec (pbio)" \
        "cargo test -q -p pbio varint" \
        "cargo test -q -p pbio batch" \
        "==> hub publish (pubsub), the LPA's double buffer (kprof), daemon (core)" \
        "cargo test -q -p pubsub publish" \
        "cargo test -q -p kprof buffer" \
        "cargo test -q -p sysprof daemon::" \
        "==> allocations (counting allocator, release): warm publishes, warm wakes" \
        "cargo test -q --release -p pubsub --test zero_alloc" \
        "cargo test -q --release -p sysprof --test daemon_alloc" \
        "==> the cluster ledger's cuts (bench)" \
        "cargo test -q --release -p sysprof-bench cluster" \
        "==> sysbench quick fingerprints (cluster_kv, cluster_iperf, node_hotpath; seeds 7, 11)" \
        "check_fingerprints cluster_kv cluster_iperf node_hotpath"
    ;;
--bench-history)
    if [[ "${2:-}" == --pairs ]]; then
        fast_path BENCH_HISTORY "bench_history_pairs ${3:-} ${4:-}"
    fi
    fast_path BENCH_HISTORY bench_history
    ;;
--merge)
    # The merge-lattice analysis and the sharded evaluation path: the
    # classifier goldens + shard-differential sweep, the digest fold, the
    # GPA wiring, and the end-to-end scenario differential.
    fast_path MERGE \
        "==> one lowering (the classifier reads ecode::ir, not stack ops)" \
        check_one_lowering \
        "==> shard-safety analysis (classifier goldens + differential sweep)" \
        "cargo test -q -p ecode --test verifier merge" \
        "cargo test -q -p ecode --test verifier shard" \
        "==> sharded digest fold (pubsub)" \
        "cargo test -q -p pubsub digest" \
        "${gpa_digest_steps[@]}"
    ;;
esac

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

run_analyzer

echo "==> one lowering (no stack ops in the ecode backends or the merge analysis)"
check_one_lowering

echo "==> one recognizer (jit.rs classifies forms in spec_node only)"
check_one_recognizer

echo "==> borrowed names (ecode's tokens and AST own no String)"
check_borrowed_names

echo "==> flat IR (ecode's lowering is one node table; no Box<Ex> in ir/jit/batch/merge)"
check_flat_ir

echo "==> one varint reader (LEB128 is decoded by pbio::varint::read_u64 only)"
check_one_varint_reader

echo "==> one varint writer (LEB128 is encoded by pbio::varint::write_u64 only)"
check_one_varint_writer

echo "==> one receiver (core and apps reach the stream through Sender/Receiver)"
check_one_receiver

echo "==> one runner (apps and bench build, deploy and retry through scenario.rs)"
check_one_runner

echo "==> one switch (LpaConfig::level; open-window counts change in Window only)"
check_one_switch

echo "==> one class statistic (ClassStats; indictments through sysprof::detect)"
check_one_class_stat

echo "==> one daemon (Daemon answers CONTROL_PORT; topics are records::TOPICS)"
check_one_daemon

echo "==> one price list (the kernel's charges and waits are simos::cost constants)"
check_one_price_list

echo "==> one draw (no powf/powi/ln/exp in apps, simos or simnet; shaped draws are simcore::rng's)"
check_one_draw

echo "==> cargo doc (ecode's docs are its design: no stale links)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps -p ecode

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test (release)"
cargo test --release -q

echo "==> sysbench harness (benchmark/ builds against this tree; quick tests)"
# benchmark/ is its own workspace, so nothing above compiles it: an
# ecode/pubsub/core API change that breaks it must fail here, not in the
# bench driver.
cargo test --release --offline --manifest-path benchmark/Cargo.toml --target-dir target

echo "==> substrate: sysbench quick fingerprints (cluster_kv, cluster_iperf; seeds 7, 11)"
# The workspace test runs above already cover the rest of --substrate.
check_fingerprints cluster_kv cluster_iperf

echo "==> GPA: sysbench quick fingerprints (gpa_query; seeds 7, 11)"
check_fingerprints gpa_query

echo "==> Kprof: sysbench quick fingerprints (node_hotpath; seeds 7, 11)"
check_fingerprints node_hotpath

echo "==> GPA ingest: sysbench quick fingerprints (gpa_wire, gpa_wire_large; seeds 7, 11)"
check_fingerprints gpa_wire gpa_wire_large

echo "==> examples"
cargo build -q --examples
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "--> example: $name"
    cargo run -q --example "$name"
done

echo "CI OK"
