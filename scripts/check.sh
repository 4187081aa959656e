#!/usr/bin/env bash
# Tier-1 gate: build, tests, lints, formatting, and the byte-level pins.
#
# `cargo build` / `cargo test` cover every jmb crate (the workspace's
# default-members). On top of the debug suites, five release steps: the
# `sync_equivalence` fixtures (the default sync path bit for bit: four
# FastNet sweeps, release-only, and the `SampleBackend` cell golden that
# pins `JmbNetwork::joint_transmit_masked`, which also runs in debug),
# the sample medium's `render_equivalence` corpus (576 frames rendered by
# `Medium::render_rx` and by its two test-local references: the same bytes
# as the naive two-stage render, within the stated model gap of the per-path
# loop it replaced; ignored in debug, where the per-tap kernel makes it slow;
# with it the tone test that ties the medium to `Link::freq_response_at`),
# the scenario manifest's count caps (`caps`: the top of every AP/client/
# grid range is built and run on each backend; ignored in debug, where ten
# rendered waveforms per frame take minutes),
# the benchmark package's own tests (it is a workspace of its own), and
# the figure CSVs — `jmb-bench all` regenerated into a temp dir must
# `cmp`-equal every checked-in `results/*.csv` (fig06/07 and both
# ablations go through the sample-level network).
#
# The jmb-* packages must be clippy- and rustfmt-clean, and their docs
# must build without a rustdoc warning (a link to a private or deleted item
# fails); the vendored stand-in crates under vendor/ (rand, proptest) are
# kept byte-comparable to their upstreams and are exempt from formatting.
#
# Fifteen greps beside the figure CSVs: the scratch rule (DESIGN.md §7) — no
# `thread_local!` in a program crate —
# the ramp rule — no `Complex64::cis(` per subcarrier in the fast path's
# two kernels, `channel_rows_into` and `Scratch::probe_sinr` — the
# factorisation rule (DESIGN.md §3.5) — neither `Scratch::probe_sinr` nor
# `FastNet::baseline_snr` (whose dB view is `baseline_snr_db`) calls
# `channel_rows_into(`: both read the static rows, since `|g|²` drops every
# receive oscillator — the linear-power rule (DESIGN.md §3.2, §3.5): no
# `lin_to_db(` or `db_to_lin(` on the rate path, from the probe kernel to
# the MCS scans — the
# transmit-factor rule (DESIGN.md §3.5): neither does the fast measurement
# (`estimate_channel`, `measured_rows`, `remeasure_client`), whose rows are
# `H_s ∘ T(t0)` — the
# taps-plus-kernel rule (DESIGN.md §3.16) — `RxWindow::superpose` calls
# the sweep (`resample(`) once, never `interpolate_at(`, and never walks the
# taps — the rotator rule (DESIGN.md §3.1, §3.16) — no `cis(`, `sin_cos(`,
# `.sin()` or `.cos()` in `RxWindow::superpose`, `sync::correct_cfo`,
# `transmit_streams`, `misalignment_probe`, `FrameRx::soft_symbol` or
# `PilotTrack::corrections`, whose phases are affine in the sample or
# subcarrier index and are walked by `rotate_ramp`, `phasor_ramp` or the
# sweep, and `soft_symbol` takes its pilot correction from
# `PilotTrack::corrections` alone — the one-kernel rule (DESIGN.md §3.11):
# viterbi.rs has one add-compare-select loop, generic over admission, and
# the demapper's `Axis::distances` one fixed-width body — the written-once rule
# (DESIGN.md §3.5, §3.6), which is two: each method of the networks' shared
# surface has one `pub fn` under crates/core/src, and one
# struct in crates/traffic/src carries a clock debt — and the one-ledger rule
# (DESIGN.md §3.9): `Registry` is not named under crates/core/src, where
# what happened is returned or put on a trace and never counted — and the
# sampler split (DESIGN.md §3.1): the ziggurat — `standard_normal_pair` and
# its batch fill `fill_standard_normals` — is named only by the two noise
# processes it serves, the oscillator grid walk (oscillator.rs) and
# estimation noise (fastnet.rs) — the kept-row rule
# (DESIGN.md §3.4): the fast deployment calibrates through `set_gain` and
# `scale_gain`, never `link_mut(`, which would drop the rows calibration
# just summed — and the
# head-pick rule (DESIGN.md §3.5): `JmbMac::select_batch` pops client queue
# heads and calls no `.remove(` — and the one-store rule (DESIGN.md §3.5):
# outside precoder.rs, `ZfStore` is the one live caller of
# `rebuild_zero_forcing(`. The script ends by printing (not gating)
# the size scan simplicity PRs quote: live lines, `pub fn`s and the
# settable fields of every `pub struct *Config`, per program crate.
#
# Each repo invariant has one mechanism. rustc: `unsafe_code` is forbidden
# in `[workspace.lints.rust]` (every package, tests and binaries included),
# and `#![warn(missing_docs)]` under `-D warnings` gates the documented
# crates. clippy, through the root clippy.toml: HashMap/HashSet are
# disallowed types (iteration order, float reduction order), and the host
# clock (`Instant::now`, `SystemTime::now`, `thread::sleep`) and
# `available_parallelism` are disallowed methods. The hot modules deny
# unwrap/expect/panic!/unreachable!/todo!/unimplemented! and the assert
# family (clippy.toml's disallowed macros) outside tests. A sanctioned site
# carries `#[expect(clippy::…, reason = …)]`, every allow or expect must give
# a reason, and a stale expect fails `-D warnings`. A canary crate proves
# each clippy.toml entry and the hot-module attribute still bite. The
# cross-file rules (every trace kind emitted, every public merge ordered and
# tested, the hot set itself) are `tests/repo_rules.rs`, part of `cargo
# test`. The determinism contract's dynamic counterpart — the
# schedule-perturbation harness — is CI's det-matrix job; run it locally with
#   cargo run --release -p jmb-bench -- det_harness --quick
set -euo pipefail
cd "$(dirname "$0")/.."

JMB_PKGS=(-p jmb -p jmb-bench -p jmb-channel -p jmb-city -p jmb-core -p jmb-dsp -p jmb-obs -p jmb-phy -p jmb-scenario -p jmb-sim -p jmb-traffic)

cargo build --release
cargo test -q
cargo test --release -q -p jmb-bench --test sync_equivalence
cargo test --release -q -p jmb-sim --test render_equivalence --test tone_response
cargo test --release -q -p jmb-scenario --test caps
cargo test --release -q --manifest-path crates/bench/benchmark/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings -D clippy::allow_attributes_without_reason
cargo fmt "${JMB_PKGS[@]}" -- --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${JMB_PKGS[@]}"

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

# clippy.toml and the hot-module attribute bite: a throwaway crate with one
# use per disallowed path, and a `hot` module (the attribute the hot modules
# carry) with one fn per panicking construct, linted against the root config,
# is refused exactly once per path and per construct; the `assert!` outside
# `hot` is not refused. This stands in for golden fixtures: deleting an
# entry, or a lint from the attribute, fails here.
canary="$scratch/canary"
mkdir -p "$canary/src"
printf '[package]\nname = "clippy-canary"\nversion = "0.0.0"\nedition = "2021"\n\n[workspace]\n\n[lints.clippy]\ndisallowed_macros = "allow"\n' \
  > "$canary/Cargo.toml"
hot_attr=$(sed -n '/^#!\[cfg_attr(/,/^)\]/p' crates/core/src/mac.rs)
cat > "$canary/src/lib.rs" <<RS
pub fn hash_map() -> usize { std::collections::HashMap::<u8, u8>::new().len() }
pub fn hash_set() -> usize { std::collections::HashSet::<u8>::new().len() }
pub fn instant() -> std::time::Instant { std::time::Instant::now() }
pub fn system_time() -> std::time::SystemTime { std::time::SystemTime::now() }
pub fn sleep() { std::thread::sleep(std::time::Duration::ZERO) }
pub fn cores() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }
pub fn cold(n: u8) { assert!(n > 0) }
pub mod hot {
$hot_attr
pub fn options(a: Option<u8>, b: Option<u8>) -> u8 { a.unwrap() + b.expect("b") }
pub fn panics(n: u8) -> u8 { match n { 0 => panic!(), 1 => unreachable!(), 2 => todo!(), _ => unimplemented!() } }
pub fn asserts(n: u8) { assert!(n > 0); assert_eq!(n, 1); assert_ne!(n, 2) }
}
RS
if report=$(CLIPPY_CONF_DIR="$PWD" cargo clippy --offline --quiet --message-format=short \
    --manifest-path "$canary/Cargo.toml" -- -D warnings 2>&1); then
  echo "clippy accepted the canary crate: clippy.toml disallows nothing" >&2
  exit 1
fi
refused() { grep -c "$1" <<< "$report" || true; }
for path in std::collections::HashMap std::collections::HashSet std::time::Instant::now \
    std::time::SystemTime::now std::thread::sleep std::thread::available_parallelism \
    std::assert std::assert_eq std::assert_ne; do
  if [ "$(refused "disallowed [a-z]* \`$path\`")" -ne 1 ]; then
    printf 'clippy.toml does not refuse %s exactly once in the canary crate:\n%s\n' "$path" "$report" >&2
    exit 1
  fi
done
for construct in 'used `unwrap()`' 'used `expect()`' '`panic` should not be present' \
    'usage of the `unreachable!` macro' '`todo` should not be present' \
    '`unimplemented` should not be present'; do
  if [ "$(refused "$construct")" -ne 1 ]; then
    printf 'the hot-module attribute does not refuse %s exactly once in the canary crate:\n%s\n' "$construct" "$report" >&2
    exit 1
  fi
done
echo "clippy.toml refuses each of its nine paths; the hot-module attribute each panicking construct"

fresh="$scratch/results"
mkdir "$fresh"
./target/release/jmb-bench all --out "$fresh" > /dev/null
for csv in results/*.csv; do
  cmp "$csv" "$fresh/$(basename "$csv")"
done
echo "results/*.csv byte-identical to a fresh jmb-bench all"

# Scratch is passed, not found: no thread-locals.
if grep -rn 'thread_local!' crates/*/src src; then
  echo "thread_local! in a program crate (pass the scratch down instead)" >&2
  exit 1
fi

# The two kernels of the fast path walk linear phases as ramps
# (jmb_dsp::complex::phasor_ramp): a `cis` per subcarrier creeping back into
# either is the regression. The one sanctioned `cis` is still each pair's
# phasor in the row loop behind `channel_rows_into` and `transmit_rows_into`
# (`SubcarrierMedium::rows_into`), once per (tx, rx), outside the subcarrier
# walk — and the probe kernel no longer calls `channel_rows_into`.
kernel() { sed -n "/$2/,/^    }\$/p" "$1"; }
if { kernel crates/sim/src/freq.rs 'fn rows_into(' | grep -v 'let pair = ';
     kernel crates/core/src/fastnet.rs 'pub(crate) fn probe_sinr(';
   } | grep -n 'Complex64::cis('; then
  echo "Complex64::cis( inside SubcarrierMedium::rows_into or Scratch::probe_sinr (walk a phasor_ramp instead)" >&2
  exit 1
fi

# The probe and the 802.11 baseline work on the factorisation (DESIGN.md
# §3.5): a receive antenna's oscillator turns its whole row by a unit
# phasor, which `|g|²` drops, so both read the medium's static rows. A
# `channel_rows_into(` in either rebuilds every row and walks every client's
# oscillator again.
if { kernel crates/core/src/fastnet.rs 'pub(crate) fn probe_sinr(';
     kernel crates/core/src/fastnet.rs 'pub fn baseline_snr(';
   } | grep -n 'channel_rows_into('; then
  echo "channel_rows_into( inside Scratch::probe_sinr or FastNet::baseline_snr (read static_row instead)" >&2
  exit 1
fi

# SNR is linear power from the probe kernel to the rate decision (DESIGN.md
# §3.2, §3.5): the EESM works on linear SNRs, so a `lin_to_db(` or
# `db_to_lin(` in the kernel, the joint rate, the subset transmit or either
# MCS scan is a per-subcarrier dB round trip creeping back. dB is for what
# leaves the program, one conversion per stream or row.
top_fn() { sed -n "/$2/,/^}\$/p" "$1"; }
if { kernel crates/core/src/fastnet.rs 'pub(crate) fn probe_sinr(';
     kernel crates/core/src/fastnet.rs 'fn joint_rate(';
     kernel crates/core/src/fastnet.rs 'pub fn joint_transmit_subset<';
     top_fn crates/phy/src/esnr.rs '^pub fn select_mcs(';
     top_fn crates/core/src/baseline.rs '^pub(crate) fn select_joint_mcs(';
   } | grep -n 'lin_to_db(\|db_to_lin('; then
  echo "lin_to_db( or db_to_lin( on the rate path (probe_sinr, joint_rate, joint_transmit_subset, select_mcs, select_joint_mcs): keep SNR linear" >&2
  exit 1
fi

# What a client feeds back is `H_s ∘ T(t0)` (DESIGN.md §3.5): its own
# oscillator turns its whole row, which zero-forcing absorbs into a column
# phase, so the fast measurement reads no client oscillator and walks no
# client trajectory. A `channel_rows_into(` or `channel_row_into(` in
# `FastEval::estimate_channel`, `FastEval::measured_rows` or
# `FastNet::remeasure_client` is the full row, receive oscillator included,
# creeping back.
if { kernel crates/core/src/fastnet.rs 'fn estimate_channel(';
     kernel crates/core/src/fastnet.rs 'fn measured_rows(';
     kernel crates/core/src/fastnet.rs 'pub fn remeasure_client(';
   } | grep -n 'channel_rows\?_into('; then
  echo "channel_rows_into( in FastNet's measurement (feed back transmit_rows_into: no client oscillator)" >&2
  exit 1
fi

# The sample medium pays taps + kernel, not taps × kernel (DESIGN.md §3.16):
# the link's taps are walked once per (transmission, receiver), in stage 1
# (`tapped_delay_line`), and `superpose` resamples the line in one sweep
# (`jmb_dsp::delay::resample`) over the instants that hear it. A
# `tap_iter()` inside `superpose` is the per-tap kernel creeping back; an
# `interpolate_at(` there, or a second `resample(`, is the per-sample
# kernel, whose trig the sweep walks as rotators.
superpose() { kernel crates/sim/src/medium.rs 'fn superpose('; }
live_medium() { sed '/^#\[cfg(test)\]/q' crates/sim/src/medium.rs; }
if superpose | grep -n 'tap_iter()\|interpolate_at(' \
   || [ "$(superpose | grep -o 'resample(' | wc -l)" -ne 1 ] \
   || [ "$(live_medium | grep -o 'tap_iter()' | wc -l)" -ne 1 ]; then
  echo "RxWindow::superpose must call resample( once and never interpolate_at( or tap_iter(); the taps belong to tapped_delay_line alone" >&2
  exit 1
fi

# The receive chain's kernels are written once (DESIGN.md §3.11): the
# Viterbi add-compare-select is `acs_block::<ADMIT>`, one loop instantiated
# with and without admission, and `Axis::distances` takes its level count
# as a const parameter. A second `fn acs…` or a second branch-metric line
# (`SIGN0[j]`) in viterbi.rs, or a `distances` over a run-time level count,
# is the fork creeping back.
live() { sed '/^#\[cfg(test)\]/q' "$1"; }
count() { live "$1" | grep -c -- "$2" || true; }
if [ "$(count crates/phy/src/viterbi.rs 'fn acs')" -ne 1 ] \
   || [ "$(count crates/phy/src/viterbi.rs 'fn acs_block<const ADMIT: bool>(')" -ne 1 ] \
   || [ "$(count crates/phy/src/viterbi.rs 'SIGN0\[j\]')" -ne 1 ] \
   || [ "$(count crates/phy/src/modulation.rs 'fn distances')" -ne 1 ] \
   || [ "$(count crates/phy/src/modulation.rs 'fn distances<const L: usize>(')" -ne 1 ] \
   || [ "$(count crates/phy/src/modulation.rs 'levels: Vec')" -ne 0 ]; then
  echo "viterbi.rs must define one ACS loop (acs_block<const ADMIT: bool>) and Axis one distances<const L: usize> over fixed-width levels" >&2
  exit 1
fi

# Phases affine in the sample or subcarrier index are walked, not evaluated
# (DESIGN.md §3.1, §3.16): the carriers in `superpose`, the CFO correction,
# a slave's within-packet tracking in `transmit_streams` and in the Fig. 7
# probe, and the pilot correction in `soft_symbol`, whose one home is
# `PilotTrack::corrections`. A `cis(`, `sin_cos(`, `.sin()` or `.cos()` in
# any of them is a per-sample or per-subcarrier transcendental creeping
# back, and so is a `soft_symbol` that does not read its correction from
# one `.corrections(` call (a per-subcarrier helper elsewhere would hide
# its `cis(` from this grep); anchoring lives in `rotate_ramp`,
# `phasor_ramp` and the sweep.
soft_symbol() { kernel crates/phy/src/frame.rs 'fn soft_symbol('; }
if { superpose;
     top_fn crates/phy/src/sync.rs '^pub fn correct_cfo(';
     kernel crates/core/src/net.rs 'fn transmit_streams(';
     kernel crates/core/src/net.rs 'pub(crate) fn misalignment_probe(';
     soft_symbol;
     kernel crates/phy/src/chanest.rs 'pub(crate) fn corrections<';
   } | grep -n 'cis(\|sin_cos(\|\.sin()\|\.cos()' \
   || [ "$(soft_symbol | grep -o '\.corrections(' | wc -l)" -ne 1 ]; then
  echo "cis( / sin_cos( / .sin() / .cos() in superpose, correct_cfo, transmit_streams, misalignment_probe, soft_symbol or PilotTrack::corrections, or soft_symbol's pilot correction not read once from PilotTrack::corrections: walk the phase with rotate_ramp or phasor_ramp" >&2
  exit 1
fi

# The protocol is written once: a second `pub fn` of the shared surface
# under crates/core/src, or a second struct with a `debt_s`, is a fork of
# `Network<L>` / `Backend<L>` creeping back. (`Precoder::k_hat` is the
# number itself.)
shared=$(ls crates/core/src/*.rs | grep -v '/precoder.rs$')
for name in now advance sync_health last_sync sync_strategy set_sync_strategy \
    sync_phase_error_rad take_sync_control_airtime_s set_fault_schedule \
    measured_channel ap_nodes client_nodes run_measurement; do
  # shellcheck disable=SC2086
  n=$(cat $shared | grep -c 'pub fn '"$name"'(' || true)
  if [ "$n" -ne 1 ]; then
    echo "pub fn $name( is defined $n times under crates/core/src outside precoder.rs (once, in network.rs)" >&2
    exit 1
  fi
done
if [ "$(grep -rn '^ *debt_s: f64,' crates/traffic/src | wc -l)" -ne 1 ]; then
  echo "debt_s must be a field of exactly one struct in crates/traffic/src (Backend<L>)" >&2
  exit 1
fi

# What happened is recorded once: the MAC returns every packet's fate and
# the networks put control events on their trace; counting them is the
# traffic layer's registry (`TrafficSim::note`). A `Registry` under
# crates/core/src is a second ledger creeping back.
if grep -n 'Registry' crates/core/src/*.rs; then
  echo "Registry named under crates/core/src (return the event; jmb-traffic counts it)" >&2
  exit 1
fi

# Noise draws may move with their sampler; deployments may not. Any third
# caller of the ziggurat — the pair or its batch fill — would redraw a
# deployment — placement, fading, ppm, AWGN — and with it every cell a seed
# names.
if grep -rlE 'standard_normal_pair|fill_standard_normals' crates/*/src crates/bench/benchmark/src src examples \
   | grep -v '^crates/dsp/src/rng\.rs$\|^crates/channel/src/oscillator\.rs$\|^crates/core/src/fastnet\.rs$'; then
  echo "standard_normal_pair or fill_standard_normals named outside rng.rs, oscillator.rs and fastnet.rs (deployment draws take standard_normal)" >&2
  exit 1
fi

# Calibration rescales the rows it summed (DESIGN.md §3.4, §3.5): a row is
# `gain · F_k · d_k`, and `set_gain` / `scale_gain` rewrite it from the kept
# factors. A `link_mut(` in the fast deployment — `FastEval::deploy` and
# `FastRoom::{draw, deploy, calibrate}` — drops them, every calibrated link
# is summed twice, and the room refuses the medium it lent.
if { kernel crates/core/src/fastnet.rs 'fn deploy(';
     kernel crates/core/src/fastnet.rs 'fn draw(';
     kernel crates/core/src/fastnet.rs 'fn calibrate(';
   } | grep -n 'link_mut('; then
  echo "link_mut( inside the fast deployment (FastEval::deploy, FastRoom::draw/deploy/calibrate): calibrate with SubcarrierMedium::set_gain/scale_gain, which keep the row" >&2
  exit 1
fi

# A zero-forcing precoder comes from one store (DESIGN.md §3.5): outside
# precoder.rs, the only live `rebuild_zero_forcing(` is `ZfStore`'s, which
# solves a restriction of the measured channel when a transmission asks for
# it. A second caller is an eager solve, or a second cache, creeping back.
zf_callers=$(for f in crates/*/src/*.rs; do
  [ "$f" = crates/core/src/precoder.rs ] || live "$f"
done | grep -c 'rebuild_zero_forcing(' || true)
if [ "$zf_callers" -ne 1 ]; then
  echo "rebuild_zero_forcing( has $zf_callers live callers outside precoder.rs (one: ZfStore in network.rs)" >&2
  exit 1
fi

# A batch is picked from the client queues' heads (DESIGN.md §3.5): a
# `.remove(` in `JmbMac::select_batch` is the scan of the shared backlog,
# with its mid-queue removals, creeping back.
if kernel crates/core/src/mac.rs 'pub fn select_batch(' | grep -n '\.remove('; then
  echo ".remove( inside JmbMac::select_batch (pop the heads of the per-client queues)" >&2
  exit 1
fi

# Size, above the first #[cfg(test)] in column 0 of each file (an indented
# one gates a field or a statement, not the rest of the file), per program
# crate: lines, `pub fn`s, and the settable (`pub`) fields of each
# `pub struct *Config`.
for crate in crates/*/; do
  find "$crate"src -name '*.rs' | sort | xargs awk '
    FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 }
    live { lines++; if (/pub fn/) fns++ }
    live && /^pub struct [A-Za-z]*Config \{/ { cfg = $3; configs = configs "  " cfg; fields[cfg] = 0; next }
    cfg != "" && /^}/ { configs = configs " " fields[cfg]; cfg = "" }
    cfg != "" && /^    pub [a-z_0-9]+:/ { fields[cfg]++ }
    END { printf "%-18s %6d lines %4d pub fn%s\n", crate, lines, fns, configs }' crate="$crate"
done

echo "tier-1 checks passed"
