#!/usr/bin/env bash
# Runs a short fuzz pass over every harness in fuzz/ — the CI `fuzz` job
# entry point, also usable locally before touching a decode path.
#
# With Clang available it builds -DXO_FUZZ=ON (real libFuzzer targets,
# ASan+UBSan) and fuzzes each target for a time budget, seeded from
# fuzz/corpus/seed + fuzz/corpus/regression. Without Clang it falls back
# to the GCC replay drivers (ASan+UBSan) and runs their randomized
# mutation campaign for the same budget. Either way every committed
# regression input is replayed first, and any crash artifact fails the
# run and is left in FUZZ_BUILD_DIR/artifacts/ for triage.
#
# Usage: tools/run_fuzz.sh [seconds-per-target]   (default 60)
# Env:   FUZZ_CLANG=clang++-18  FUZZ_BUILD_DIR=build-fuzz  FUZZ_JOBS=8
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET="${1:-60}"
BUILD_DIR="${FUZZ_BUILD_DIR:-build-fuzz}"
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
SURFACES=(xml_parse segment_open query dewey manifest)

CXX_BIN="${FUZZ_CLANG:-}"
if [[ -z "${CXX_BIN}" ]]; then
  for candidate in clang++ clang++-20 clang++-19 clang++-18 clang++-17 \
                   clang++-16 clang++-15 clang++-14; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      CXX_BIN="${candidate}"
      break
    fi
  done
fi

if [[ -n "${CXX_BIN}" ]]; then
  MODE=libfuzzer
  echo "run_fuzz.sh: libFuzzer mode (${CXX_BIN}), ${BUDGET}s per target"
  cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER="${CXX_BIN}" \
    -DXO_FUZZ=ON \
    -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" \
    -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}" >/dev/null
else
  MODE=replay
  echo "run_fuzz.sh: clang++ not found; replay-campaign mode (GCC)," \
       "${BUDGET}s per target" >&2
  echo "run_fuzz.sh: install clang (apt-get install clang) for libFuzzer" \
       "coverage guidance." >&2
  cmake -B "${BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" \
    -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}" >/dev/null
fi
cmake --build "${BUILD_DIR}" -j"${FUZZ_JOBS:-$(nproc)}" \
  --target "${SURFACES[@]/#/fuzz_}" >/dev/null

ARTIFACTS="${BUILD_DIR}/artifacts"
mkdir -p "${ARTIFACTS}"
STATUS=0
for surface in "${SURFACES[@]}"; do
  target="${BUILD_DIR}/fuzz/fuzz_${surface}"
  corpus=(fuzz/corpus/regression/"${surface}")
  [[ -d fuzz/corpus/seed/${surface} ]] && corpus+=(fuzz/corpus/seed/"${surface}")
  echo "run_fuzz.sh: fuzz_${surface}"
  if [[ "${MODE}" == libfuzzer ]]; then
    # Replay the committed corpus, then fuzz for the budget. Crashes land
    # in the artifacts dir and fail the loop.
    if ! "${target}" -runs=0 "${corpus[@]}"; then
      STATUS=1
      continue
    fi
    work="${ARTIFACTS}/corpus_${surface}"
    mkdir -p "${work}"
    "${target}" -max_total_time="${BUDGET}" -max_len=65536 -timeout=30 \
      -print_final_stats=1 \
      -artifact_prefix="${ARTIFACTS}/${surface}-" \
      "${work}" "${corpus[@]}" || STATUS=1
  else
    "${target}" --seconds "${BUDGET}" --seed "${RANDOM}" \
      --artifact "${ARTIFACTS}/${surface}-crash.bin" \
      "${corpus[@]}" || STATUS=1
  fi
done

leftover=$(find "${ARTIFACTS}" -maxdepth 1 -type f 2>/dev/null | wc -l)
if [[ "${STATUS}" -ne 0 || "${leftover}" -gt 0 ]]; then
  echo "run_fuzz.sh: FAILURES — reproducers under ${ARTIFACTS}/" >&2
  exit 1
fi
echo "run_fuzz.sh: clean"
