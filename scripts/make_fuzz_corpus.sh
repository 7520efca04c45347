#!/usr/bin/env bash
# Regenerates the checked-in fuzz seed corpora under tests/corpus/.
#
# Seeds are deterministic (fixed tracegen seeds, handcrafted byte blobs),
# so re-running this script reproduces the corpus bit-for-bit; CI replays
# the corpus through the standalone fuzz drivers as a smoke test, and
# local libFuzzer runs (-DWMLP_LIBFUZZER=ON with clang) use it as the
# starting population.
#
# Usage: scripts/make_fuzz_corpus.sh [build-dir]   (default: build)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
tracegen="$build/tools/wmlp_tracegen"

if [[ ! -x "$tracegen" ]]; then
  echo "error: $tracegen not built (cmake --build $build --target wmlp_tracegen)" >&2
  exit 1
fi

trace_dir="$repo/tests/corpus/trace_io"
differ_dir="$repo/tests/corpus/policy_differ"
serve_dir="$repo/tests/corpus/serve_config"
pred_dir="$repo/tests/corpus/predictor_config"
spec_dir="$repo/tests/corpus/registry_spec"
rm -rf "$trace_dir" "$differ_dir" "$serve_dir" "$pred_dir" "$spec_dir"
mkdir -p "$trace_dir" "$differ_dir" "$serve_dir" "$pred_dir" "$spec_dir"

# ---- trace_io corpus: valid traces spanning the format space -------------

gen() {
  local name="$1"
  shift
  "$tracegen" --out "$trace_dir/$name" "$@"
}

gen zipf_small.trace        --kind zipf --n 12 --k 4 --ell 1 --length 60 --seed 1
gen zipf_multilevel.trace   --kind zipf --n 10 --k 3 --ell 3 --length 50 \
                            --weights geometric --mix uniform --seed 2
gen loop_adversary.trace    --kind loop --n 8 --k 4 --ell 1 --length 40 --seed 3
gen phases.trace            --kind phases --n 24 --k 6 --ell 2 --length 80 \
                            --mix uniform --seed 4
gen markov.trace            --kind markov --n 16 --k 5 --ell 2 --length 60 \
                            --mix uniform --seed 5
gen zipf_wide_weights.trace --kind zipf --n 8 --k 2 --ell 2 --length 30 \
                            --weights zipfpages --ratio 64 --mix uniform --seed 6
gen tiny.trace              --kind zipf --n 2 --k 1 --ell 1 --length 5 --seed 7

# Malformed inputs: each exercises one reject path of the parser.
printf 'garbage\n'                                    > "$trace_dir/bad_magic.trace"
printf 'wmlp-trace v1\n0 1 1\n'                       > "$trace_dir/bad_header.trace"
printf 'wmlp-trace v1\n2 1 1\n4\n8\n1\n0 1\n'         > "$trace_dir/weights_increasing.trace"
printf 'wmlp-trace v1\n2 1 2\n4 8\n4 2\n1\n0 1\n'     > "$trace_dir/level_weights_increasing.trace"
printf 'wmlp-trace v1\n2 1 1\n2\n1\n3\n0 1\n'         > "$trace_dir/truncated_requests.trace"
printf 'wmlp-trace v1\n2 1 1\n2\n1\n1\n5 1\n'         > "$trace_dir/request_out_of_range.trace"
printf 'wmlp-trace v1\n2 1 1\nnan\n1\n0\n'            > "$trace_dir/nan_weight.trace"
printf 'wmlp-trace v1\n1073741824 1 1\n'              > "$trace_dir/huge_header.trace"
printf 'wmlp-trace v1\n2 1 1\n1\n1\n1099511627776\n'  > "$trace_dir/huge_length.trace"
printf ''                                             > "$trace_dir/empty.trace"

# ---- policy_differ corpus: byte blobs decoded by the harness -------------
#
# Layout (fuzz/fuzz_policy_differ.cpp ByteReader): n, k, ell, weight model,
# ratio, seed, then (page, level) byte pairs. Seeds cover the decoder's
# corner cases; fuzzing mutates from here.

printf ''                                  > "$differ_dir/empty.bin"
printf '\x00'                              > "$differ_dir/one_byte.bin"
printf '\x00\x00\x00\x00\x00\x00'          > "$differ_dir/minimal.bin"
printf '\x07\x02\x01\x00\x08\x03%b' \
  '\x00\x00\x01\x00\x02\x00\x03\x00\x04\x00\x05\x00\x06\x00\x07\x00' \
                                           > "$differ_dir/uniform_cycle.bin"
printf '\x05\x01\x02\x01\x10\x07%b' \
  '\x00\x01\x01\x00\x02\x01\x03\x00\x00\x00\x04\x01' \
                                           > "$differ_dir/multilevel_mix.bin"
printf '\x08\x03\x02\x02\x20\x01%b' \
  '\x01\x01\x01\x01\x01\x01\x02\x00\x03\x01\x02\x00\x01\x01' \
                                           > "$differ_dir/repeat_heavy.bin"
head -c 96 /dev/zero | tr '\0' '\5'        > "$differ_dir/long_same_byte.bin"

# ---- serve_config corpus: byte blobs decoded by the harness -------------
#
# Layout (fuzz/fuzz_serve_config.cpp ByteReader): policy selector, n, k,
# ell (skipped for marking), seed, shards (int32 BE), clients (int32 BE),
# batch (int64 BE), telemetry options (shape byte, telemetry_out length +
# bytes, trace_out length + bytes unless shape bit 0 aliases the paths,
# stats-interval as raw double bits, int64 BE), then (page, level) byte
# pairs. One multi-shard serve trace, one single-shard engine-equivalence
# trace, telemetry-flag seeds, and reject-path seeds.

# Telemetry segment "everything off": separate empty paths, interval 0.0.
TEL_OFF='\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00'

# waterfill, n=32 k=16 ell=2, shards=4 clients=3 batch=64, 20 requests.
printf '\x09\x1f\x0f\x01\x05%b%b%b%b%b' \
  '\x00\x00\x00\x04' '\x00\x00\x00\x03' \
  '\x00\x00\x00\x00\x00\x00\x00\x40' "$TEL_OFF" \
  '\x00\x01\x05\x02\x0a\x01\x03\x02\x00\x01\x1c\x02\x07\x01\x05\x02\x0a\x02\x00\x01\x11\x01\x02\x02\x15\x01\x03\x01\x00\x02\x0c\x01\x1f\x02\x05\x01\x0a\x01\x01\x02' \
                                           > "$serve_dir/serve_multi_shard.bin"
# lru, n=10 k=4 ell=1, shards=1 clients=2 batch=8: engine-equivalence path.
printf '\x00\x09\x03\x00\x07%b%b%b%b%b' \
  '\x00\x00\x00\x01' '\x00\x00\x00\x02' \
  '\x00\x00\x00\x00\x00\x00\x00\x08' "$TEL_OFF" \
  '\x00\x01\x01\x01\x02\x01\x03\x01\x00\x01\x04\x01\x05\x01\x01\x01\x06\x01\x02\x01' \
                                           > "$serve_dir/serve_single_shard.bin"
# Valid telemetry flags: distinct 4-byte paths, interval 1.0
# (0x3FF0000000000000), odd seed so the second serve run arms the tracer.
printf '\x09\x1f\x0f\x01\x04%b%b%b%b%b%b' \
  '\x00\x00\x00\x02' '\x00\x00\x00\x02' \
  '\x00\x00\x00\x00\x00\x00\x00\x20' \
  '\x00\x04s.js\x04t.js' '\x3f\xf0\x00\x00\x00\x00\x00\x00' \
  '\x00\x01\x05\x02\x0a\x01\x03\x02\x07\x01\x11\x02\x02\x01\x15\x02' \
                                           > "$serve_dir/telemetry_flags.bin"
# Telemetry reject paths: shape bit 0 aliases trace_out onto a nonempty
# telemetry_out (same-file reject) and the interval bits decode to a NaN.
printf '\x09\x1f\x0f\x01\x05%b%b%b%b%b%b' \
  '\x00\x00\x00\x02' '\x00\x00\x00\x02' \
  '\x00\x00\x00\x00\x00\x00\x00\x20' \
  '\x01\x04s.js' '\x7f\xf8\x00\x00\x00\x00\x00\x00' \
  '\x00\x01\x05\x02\x0a\x01' > "$serve_dir/telemetry_reject.bin"
# Reject paths: zero shards; huge batch (> kMaxBatch); unknown policy
# (selector == KnownPolicyNames().size(), currently 15 = 0x0f).
printf '\x09\x1f\x0f\x01\x05%b%b%b' \
  '\x00\x00\x00\x00' '\x00\x00\x00\x02' \
  '\x00\x00\x00\x00\x00\x00\x01\x00' > "$serve_dir/reject_zero_shards.bin"
printf '\x09\x1f\x0f\x01\x05%b%b%b' \
  '\x00\x00\x00\x02' '\x00\x00\x00\x02' \
  '\x7f\xff\xff\xff\xff\xff\xff\xff' > "$serve_dir/reject_huge_batch.bin"
printf '\x0f\x05\x02\x01\x03%b%b%b' \
  '\x00\x00\x00\x02' '\x00\x00\x00\x01' \
  '\x00\x00\x00\x00\x00\x00\x00\x10' > "$serve_dir/reject_unknown_policy.bin"
printf ''                                  > "$serve_dir/empty.bin"

# ---- predictor_config corpus: byte blobs decoded by the harness ---------
#
# Layout (fuzz/fuzz_predictor_config.cpp ByteReader): noise kind (mod 4),
# eta as raw double bits (int64 BE), noise seed, n, k, ell, seed, lambda
# and alpha as raw double bits, horizon as raw int64 BE, then (page,
# level) byte pairs. Seeds pin one accepted config per noise model plus
# each documented reject path; eta/lambda bit patterns reach NaN and
# out-of-range values directly.

D_ZERO='\x00\x00\x00\x00\x00\x00\x00\x00'           # 0.0
D_QUARTER='\x3f\xd0\x00\x00\x00\x00\x00\x00'        # 0.25
D_HALF='\x3f\xe0\x00\x00\x00\x00\x00\x00'           # 0.5
D_ONE='\x3f\xf0\x00\x00\x00\x00\x00\x00'            # 1.0
D_TWO='\x40\x00\x00\x00\x00\x00\x00\x00'            # 2.0
D_1024='\x40\x90\x00\x00\x00\x00\x00\x00'           # 1024.0
D_NAN='\x7f\xf8\x00\x00\x00\x00\x00\x00'            # quiet NaN
I_ZERO='\x00\x00\x00\x00\x00\x00\x00\x00'           # horizon 0
I_NEG='\xff\xff\xff\xff\xff\xff\xff\xff'            # horizon -1

PRED_REQS='\x00\x01\x01\x01\x02\x01\x00\x01\x03\x01\x01\x01\x04\x01\x00\x01'

# lognormal eta=0.5, lambda=0.5 alpha=0.25 horizon=0.
printf '\x01%b\x07\x0b\x03\x01\x05%b%b%b%b' \
  "$D_HALF" "$D_HALF" "$D_QUARTER" "$I_ZERO" "$PRED_REQS" \
                                           > "$pred_dir/lognormal_valid.bin"
# swap at its eta=1 boundary.
printf '\x02%b\x03\x0b\x03\x01\x06%b%b%b%b' \
  "$D_ONE" "$D_ONE" "$D_QUARTER" "$I_ZERO" "$PRED_REQS" \
                                           > "$pred_dir/swap_eta_one.bin"
# stale epoch eta=1024.
printf '\x03%b\x04\x0b\x03\x01\x07%b%b%b%b' \
  "$D_1024" "$D_ZERO" "$D_QUARTER" "$I_ZERO" "$PRED_REQS" \
                                           > "$pred_dir/stale_epoch.bin"
# NaN eta: noise AND predictive AND registry-string must all reject.
printf '\x01%b\x02\x0b\x03\x01\x08%b%b%b' \
  "$D_NAN" "$D_HALF" "$D_QUARTER" "$I_ZERO" \
                                           > "$pred_dir/reject_nan_eta.bin"
# kind=none with eta>0: the none-takes-eta-0 reject path.
printf '\x00%b\x02\x0b\x03\x01\x09%b%b%b' \
  "$D_HALF" "$D_HALF" "$D_QUARTER" "$I_ZERO" \
                                           > "$pred_dir/reject_none_eta.bin"
# lambda=2 out of [0,1]: valid noise, rejected combiner.
printf '\x00%b\x02\x0b\x03\x01\x0a%b%b%b' \
  "$D_ZERO" "$D_TWO" "$D_QUARTER" "$I_ZERO" \
                                           > "$pred_dir/reject_lambda_oob.bin"
# horizon=-1: direct API rejects; the string spec omits the key and runs.
printf '\x00%b\x02\x0b\x03\x01\x0b%b%b%b%b' \
  "$D_ZERO" "$D_HALF" "$D_QUARTER" "$I_NEG" "$PRED_REQS" \
                                           > "$pred_dir/reject_neg_horizon.bin"
printf '\x01'                              > "$pred_dir/one_byte.bin"
printf ''                                  > "$pred_dir/empty.bin"

# ---- registry_spec corpus: "randomized:" parameter lists ------------------
#
# Each file is the text after "randomized:" (fuzz/fuzz_registry_spec.cpp).
# Accepted specs cover every key and engine; the reject seeds pin each
# strictness rule: unknown key, typo'd engine, malformed, non-finite and
# out-of-range numbers, empty items, leading whitespace, embedded NUL,
# repeated key.
spec() { printf '%b' "$2" > "$spec_dir/$1.txt"; }
spec accept_empty            ''
spec accept_all_keys         'beta=3,eta=0.5,delta=-1,engine=reference'
spec accept_linear           'engine=linear,delta=0.25'
spec accept_default_grid     'delta=0,beta=0'
spec reject_unknown_key      'bogus=1,beta=3'
spec reject_engine_typo      'engine=Linear'
spec reject_engine_empty     'engine='
spec reject_trailing_junk    'beta=2x'
spec reject_nan              'beta=nan'
spec reject_inf              'eta=inf'
spec reject_negative_beta    'beta=-1'
spec reject_eta_above_one    'eta=2'
spec reject_delta_above_one  'delta=2'
spec reject_tiny_delta       'delta=1e-12'
spec reject_empty_item       'beta=2,,eta=0.5'
spec reject_trailing_comma   'beta=2,'
spec reject_leading_space    'beta= 2'
spec reject_no_value         'beta'
spec reject_embedded_nul     'beta=2\x00x'
spec reject_repeated_key     'beta=1,beta=2'

echo "corpus written:"
find "$trace_dir" "$differ_dir" "$serve_dir" "$pred_dir" "$spec_dir" -type f | sort \
  | sed "s|$repo/||"
