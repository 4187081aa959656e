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
# The jmb-* packages must be clippy- and rustfmt-clean; the vendored
# stand-in crates under vendor/ (rand, proptest) are kept
# byte-comparable to their upstreams and are exempt from formatting.
#
# Seven greps beside the figure CSVs: the scratch rule (DESIGN.md §7) — no
# `thread_local!` in a program crate other than jmb-dsp's FFT plan cache —
# the ramp rule — no `Complex64::cis(` per subcarrier in the fast path's
# two kernels, `channel_rows_into` and `Scratch::probe_sinr` — the
# taps-plus-kernel rule (DESIGN.md §3.16) — `RxWindow::superpose` calls
# `interpolate_at(` once and never walks the taps — the written-once rule
# (DESIGN.md §3.5, §3.6), which is two: each method of the networks' shared
# surface has one `pub fn` under crates/core/src, and one
# struct in crates/traffic/src carries a clock debt — and the one-ledger rule
# (DESIGN.md §3.9): `Registry` is not named under crates/core/src, where
# what happened is returned or put on a trace and never counted — and the
# sampler split (DESIGN.md §3.1): `standard_normal_pair`, the ziggurat, is
# named only by the two noise processes it serves, the oscillator grid walk
# (oscillator.rs) and estimation noise (fastnet.rs). The script ends by
# printing (not gating) the size scan simplicity PRs quote.
#
# The jmb-lint deny pass includes the determinism lints
# (no-unordered-iteration, float-reduction-order, no-ambient-parallelism,
# ordered-merge). Their dynamic counterpart — the schedule-perturbation
# harness — is CI's det-matrix job; run it locally with
#   cargo run --release -p jmb-bench -- det_harness --quick
set -euo pipefail
cd "$(dirname "$0")/.."

JMB_PKGS=(-p jmb -p jmb-bench -p jmb-channel -p jmb-city -p jmb-core -p jmb-dsp -p jmb-lint -p jmb-obs -p jmb-phy -p jmb-scenario -p jmb-sim -p jmb-traffic)

cargo build --release
cargo test -q
cargo test --release -q -p jmb-bench --test sync_equivalence
cargo test --release -q -p jmb-sim --test render_equivalence --test tone_response
cargo test --release -q -p jmb-scenario --test caps
cargo test --release -q --manifest-path crates/bench/benchmark/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt "${JMB_PKGS[@]}" -- --check
cargo run --release -p jmb-lint -- --deny

fresh="$(mktemp -d)"
trap 'rm -rf "$fresh"' EXIT
./target/release/jmb-bench all --out "$fresh" > /dev/null
for csv in results/*.csv; do
  cmp "$csv" "$fresh/$(basename "$csv")"
done
echo "results/*.csv byte-identical to a fresh jmb-bench all"

# Scratch is passed, not found: the FFT plan cache is the one thread-local.
if grep -rn 'thread_local!' crates/*/src src | grep -v '^crates/dsp/src/fft.rs:'; then
  echo "thread_local! outside jmb-dsp's FFT plan cache (pass the scratch down instead)" >&2
  exit 1
fi

# The two kernels of the fast path walk linear phases as ramps
# (jmb_dsp::complex::phasor_ramp): a `cis` per subcarrier creeping back into
# either is the regression. The one `cis` allowed is each pair's phasor in
# `channel_rows_into`, once per (tx, rx), outside the subcarrier walk.
kernel() { sed -n "/$2/,/^    }\$/p" "$1"; }
if { kernel crates/sim/src/freq.rs 'pub fn channel_rows_into(' | grep -v 'let pair = ';
     kernel crates/core/src/fastnet.rs 'pub(crate) fn probe_sinr(';
   } | grep -n 'Complex64::cis('; then
  echo "Complex64::cis( inside channel_rows_into or Scratch::probe_sinr (walk a phasor_ramp instead)" >&2
  exit 1
fi

# The sample medium pays taps + kernel, not taps × kernel (DESIGN.md §3.16):
# the link's taps are walked once per (transmission, receiver), in stage 1
# (`tapped_delay_line`), and `superpose` resamples once per output sample. A
# `tap_iter()` inside `superpose`, or a second `interpolate_at(` there, is the
# per-tap kernel creeping back.
superpose() { kernel crates/sim/src/medium.rs 'fn superpose('; }
live_medium() { sed '/#\[cfg(test)\]/q' crates/sim/src/medium.rs; }
if superpose | grep -n 'tap_iter()' \
   || [ "$(superpose | grep -o 'interpolate_at(' | wc -l)" -ne 1 ] \
   || [ "$(live_medium | grep -o 'tap_iter()' | wc -l)" -ne 1 ]; then
  echo "RxWindow::superpose must call interpolate_at( once and never tap_iter(); the taps belong to tapped_delay_line alone" >&2
  exit 1
fi

# The protocol is written once: a second `pub fn` of the shared surface
# under crates/core/src, or a second struct with a `debt_s`, is a fork of
# `Network<L>` / `Backend<L>` creeping back. (`Precoder::k_hat` is the
# number itself.)
shared=$(ls crates/core/src/*.rs | grep -v '/precoder.rs$')
for name in now advance sync_health last_sync sync_strategy set_sync_strategy \
    sync_phase_error_rad take_sync_control_airtime_s set_fault_schedule \
    measured_channel k_hat ap_nodes client_nodes run_measurement; do
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
# caller of the ziggurat pair would redraw a deployment — placement, fading,
# ppm, AWGN — and with it every cell a seed names.
if grep -rl 'standard_normal_pair' crates/*/src crates/bench/benchmark/src src examples \
   | grep -v '^crates/dsp/src/rng\.rs$\|^crates/channel/src/oscillator\.rs$\|^crates/core/src/fastnet\.rs$'; then
  echo "standard_normal_pair named outside rng.rs, oscillator.rs and fastnet.rs (deployment draws take standard_normal)" >&2
  exit 1
fi

# Size, above the first #[cfg(test)] of each file, per program crate.
for crate in crates/*/; do
  find "$crate"src -name '*.rs' | sort | xargs awk 'FNR == 1 { live = 1 } /#\[cfg\(test\)\]/ { live = 0 } live { lines++; if (/pub fn/) fns++ } END { printf "%-18s %6d lines %4d pub fn\n", crate, lines, fns }' crate="$crate"
done

echo "tier-1 checks passed"
