#!/usr/bin/env bash
# Tier-1 verification with warnings promoted to errors.
#
# Default mode configures a dedicated build tree with -DEFES_WERROR=ON,
# builds everything, and runs the full test suite. `--tsan` adds a second
# configuration with -DEFES_TSAN=ON (-fsanitize=thread) and runs the full
# suite under the sanitizer, so every threaded path is covered without a
# list of suites to keep current.
# `--asan` configures with -DEFES_ASAN=ON (-fsanitize=address,undefined)
# and -DEFES_WERROR=ON, and runs the full suite — the corruption and
# fault-injection tests are most valuable here, where a parser walking off
# a buffer actually traps. The sanitized build is warning-free, so a new
# warning there fails the gate instead of hiding in the log.
# `--ubsan` configures with -DEFES_UBSAN=ON (undefined + integer checks,
# -fno-sanitize-recover) and runs the full suite; any UB aborts the test.
# `--lint` builds only the efes_lint tool and runs it over src/, tools/,
# tests/, and bench/ with --format=json against docs/registry/ (per-file
# checks everywhere, whole-program checks outside tests/ and bench/),
# failing on any unsuppressed finding.
# `--cache-roundtrip` builds only the CLI and efes_fuzz, exports the
# paper example and the 3-source fuzz seed 7 scenario, and estimates each
# three times — cold with a fresh --cache-dir, warm against the saved
# snapshot, and once with --no-cache — then diffs the three JSON reports
# byte-for-byte and requires the warm run to have hits and no misses.
# `--explain-determinism` builds only the CLI and efes_fuzz and requires
# the --explain provenance tree (and the JSON provenance section) of the
# same two scenarios to be byte-identical across --threads=1/4/8 and
# cold/warm/uncached profile-cache states.
# `--bench-smoke` configures a Release tree with -DEFES_WERROR=ON, runs
# the perf_* benches via tools/run_benches.sh into a scratch file and
# checks each emitted a valid cold and warm JSON record.
# `--fuzz-corpus` builds only efes_fuzz and replays the checked-in
# data/fuzz_corpus.txt manifest across --threads=1/8 and cold/warm/
# disabled profile-cache states; all five reports must byte-diff equal
# and the aggregate recall line must be present.
# `--serve-soak` builds efes_serve + the CLI and soaks the server with
# three interleaved deterministic client streams mixing good, explain,
# bad, fault-injected, and deadline-expired requests; gates on
# byte-identical responses across --threads=1/4/8, zero cross-request
# contamination (good and explain responses unchanged by the hostile
# mix), file_io.retries staying 0 on a clean run, and a clean SIGTERM
# drain (exit 0).
# `--profile-scale` builds the CLI + efes_fuzz, amplifies a fuzz-
# generated source to 200k rows with a prepended high-distinct uid
# column, and profiles it under a --max-memory budget the exact
# whole-column path cannot satisfy: the sketch report must be
# byte-identical across --threads=1/4/8 and --chunk-rows=4096/16384/0,
# --approx=auto must match it byte-for-byte, and --approx=exact must
# refuse the budget with a nonzero exit and the same message (the bytes
# at the first overflow) across --threads=1/4/8 and
# --chunk-rows=256/4096/16384/0, also on a small file where a later
# column overflows first.
# Exits nonzero on the first failure. Usage:
#
#   tools/check_build.sh [build-dir]                    # default: build-werror
#   tools/check_build.sh --tsan [build-dir]             # default: build-tsan
#   tools/check_build.sh --asan [build-dir]             # default: build-asan
#   tools/check_build.sh --ubsan [build-dir]            # default: build-ubsan
#   tools/check_build.sh --lint [build-dir]             # default: build-lint
#   tools/check_build.sh --cache-roundtrip [build-dir]  # default: build-cache
#   tools/check_build.sh --explain-determinism [build-dir]  # default: build-cache
#   tools/check_build.sh --bench-smoke [build-dir]      # default: build-bench
#   tools/check_build.sh --fuzz-corpus [build-dir]      # default: build-cache
#   tools/check_build.sh --serve-soak [build-dir]       # default: build-cache
#   tools/check_build.sh --profile-scale [build-dir]    # default: build-cache
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=werror
if [[ "${1:-}" == "--tsan" ]]; then
  MODE=tsan
  shift
elif [[ "${1:-}" == "--asan" ]]; then
  MODE=asan
  shift
elif [[ "${1:-}" == "--ubsan" ]]; then
  MODE=ubsan
  shift
elif [[ "${1:-}" == "--lint" ]]; then
  MODE=lint
  shift
elif [[ "${1:-}" == "--cache-roundtrip" ]]; then
  MODE=cache
  shift
elif [[ "${1:-}" == "--explain-determinism" ]]; then
  MODE=explain
  shift
elif [[ "${1:-}" == "--bench-smoke" ]]; then
  MODE=bench
  shift
elif [[ "${1:-}" == "--fuzz-corpus" ]]; then
  MODE=fuzz
  shift
elif [[ "${1:-}" == "--serve-soak" ]]; then
  MODE=serve
  shift
elif [[ "${1:-}" == "--profile-scale" ]]; then
  MODE=scale
  shift
fi

if [[ "$MODE" == "tsan" ]]; then
  BUILD_DIR="${1:-build-tsan}"
  cmake -B "$BUILD_DIR" -S . -DEFES_TSAN=ON
  cmake --build "$BUILD_DIR" -j
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j
  echo "check_build: OK (EFES_TSAN=ON, all tests passed)"
elif [[ "$MODE" == "asan" ]]; then
  BUILD_DIR="${1:-build-asan}"
  cmake -B "$BUILD_DIR" -S . -DEFES_ASAN=ON -DEFES_WERROR=ON
  cmake --build "$BUILD_DIR" -j
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j
  echo "check_build: OK (EFES_ASAN=ON, EFES_WERROR=ON, all tests passed)"
elif [[ "$MODE" == "ubsan" ]]; then
  BUILD_DIR="${1:-build-ubsan}"
  cmake -B "$BUILD_DIR" -S . -DEFES_UBSAN=ON
  cmake --build "$BUILD_DIR" -j
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j
  echo "check_build: OK (EFES_UBSAN=ON, all tests passed)"
elif [[ "$MODE" == "lint" ]]; then
  BUILD_DIR="${1:-build-lint}"
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j --target efes_lint
  "$BUILD_DIR/tools/efes_lint" --format=json --registry=docs/registry \
    src tools tests bench
  echo "check_build: OK (efes_lint, tree is lint-clean)"
elif [[ "$MODE" == "cache" ]]; then
  BUILD_DIR="${1:-build-cache}"
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j --target efes_cli --target efes_fuzz
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT
  # The paper example has one source; fuzz seed 7 has three, so it also
  # covers target columns read by several sources and the dedup module.
  "$BUILD_DIR/tools/efes" export-example "$WORK/paper"
  "$BUILD_DIR/tools/efes_fuzz" generate "$WORK/fuzz7" --fuzz-seed=7
  for name in paper fuzz7; do
    S="$WORK/$name"
    # Cold run populates the snapshot, warm run must serve from it, and
    # a --no-cache run recomputes everything; all three reports must be
    # byte-identical (the cache may change performance, never bytes).
    "$BUILD_DIR/tools/efes" estimate "$S" --format=json \
      --cache-dir="$S-cache" --out="$S-cold.json" --metrics \
      > "$S-cold.metrics"
    test -f "$S-cache/profile_cache.efes"
    "$BUILD_DIR/tools/efes" estimate "$S" --format=json \
      --cache-dir="$S-cache" --out="$S-warm.json" --metrics \
      > "$S-warm.metrics"
    "$BUILD_DIR/tools/efes" estimate "$S" --format=json \
      --no-cache --out="$S-uncached.json"
    diff "$S-cold.json" "$S-warm.json"
    diff "$S-cold.json" "$S-uncached.json"
    grep -q 'cache\.hits' "$S-warm.metrics"
    if grep -q 'cache\.misses' "$S-warm.metrics"; then
      echo "check_build: warm run on $name still missed some profiles" >&2
      grep 'cache\.' "$S-warm.metrics" >&2
      exit 1
    fi
  done
  echo "check_build: OK (cache roundtrip, cold/warm/uncached byte-identical on the paper example and fuzz seed 7)"
elif [[ "$MODE" == "explain" ]]; then
  BUILD_DIR="${1:-build-cache}"
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j --target efes_cli --target efes_fuzz
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT
  # The paper example has one source; fuzz seed 7 has three, so it also
  # covers target columns read by several sources and the dedup module.
  "$BUILD_DIR/tools/efes" export-example "$WORK/paper"
  "$BUILD_DIR/tools/efes_fuzz" generate "$WORK/fuzz7" --fuzz-seed=7
  for name in paper fuzz7; do
    S="$WORK/$name"
    # The provenance tree must not depend on how the work was scheduled:
    # any thread count, cold or warm cache, or no cache at all.
    for threads in 1 4 8; do
      "$BUILD_DIR/tools/efes" estimate "$S" --explain \
        --threads="$threads" > "$S-explain-t$threads.txt"
      "$BUILD_DIR/tools/efes" estimate "$S" --explain \
        --format=json --threads="$threads" > "$S-explain-t$threads.json"
    done
    "$BUILD_DIR/tools/efes" estimate "$S" --explain \
      --cache-dir="$S-cache" > "$S-explain-cold.txt"
    "$BUILD_DIR/tools/efes" estimate "$S" --explain \
      --cache-dir="$S-cache" > "$S-explain-warm.txt"
    "$BUILD_DIR/tools/efes" estimate "$S" --explain \
      --no-cache > "$S-explain-nocache.txt"
    for variant in t4 t8; do
      diff "$S-explain-t1.txt" "$S-explain-$variant.txt"
      diff "$S-explain-t1.json" "$S-explain-$variant.json"
    done
    for variant in cold warm nocache; do
      diff "$S-explain-t1.txt" "$S-explain-$variant.txt"
    done
    grep -q 'total effort' "$S-explain-t1.txt"
    grep -q '"provenance"' "$S-explain-t1.json"
  done
  echo "check_build: OK (--explain byte-identical across threads and cache states on the paper example and fuzz seed 7)"
elif [[ "$MODE" == "fuzz" ]]; then
  BUILD_DIR="${1:-build-cache}"
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j --target efes_fuzz
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT
  # The corpus replay must not depend on how the work was scheduled:
  # any thread count, cold or warm cache, or no cache at all.
  for threads in 1 8; do
    "$BUILD_DIR/tools/efes_fuzz" corpus data/fuzz_corpus.txt \
      --threads="$threads" > "$WORK/corpus-t$threads.txt"
  done
  "$BUILD_DIR/tools/efes_fuzz" corpus data/fuzz_corpus.txt \
    --cache-dir="$WORK/cache" > "$WORK/corpus-cold.txt"
  test -f "$WORK/cache/profile_cache.efes"
  "$BUILD_DIR/tools/efes_fuzz" corpus data/fuzz_corpus.txt \
    --cache-dir="$WORK/cache" > "$WORK/corpus-warm.txt"
  "$BUILD_DIR/tools/efes_fuzz" corpus data/fuzz_corpus.txt \
    --no-cache > "$WORK/corpus-nocache.txt"
  for variant in t8 cold warm nocache; do
    diff "$WORK/corpus-t1.txt" "$WORK/corpus-$variant.txt"
  done
  grep -q '^fuzz summary: seeds=50 ' "$WORK/corpus-t1.txt"
  grep -q 'mean_recall=' "$WORK/corpus-t1.txt"
  echo "check_build: OK (fuzz corpus byte-identical across threads and cache states)"
elif [[ "$MODE" == "serve" ]]; then
  BUILD_DIR="${1:-build-cache}"
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j --target efes_serve --target efes_cli
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT
  "$BUILD_DIR/tools/efes" export-example "$WORK/scenario"
  mkdir "$WORK/broken"  # an open against this dir must fail cleanly

  # Three interleaved deterministic client streams (sessions s1/s2/s3 run
  # on separate admission strands, so their requests execute concurrently
  # inside the server). `full` mode salts the stream with hostile
  # requests: unknown sessions, a broken open, per-request injected
  # faults (one at a module boundary on the request's thread, one at
  # `parallel.task`, which the request's tasks hit on pool threads too),
  # an already-expired deadline, and a malformed line. Both
  # modes carry one `explain` estimate per session per round, which run
  # concurrently with each other and everything else. Good request ids
  # (explain included) all start with "g" so the contamination gate can
  # compare them across runs.
  emit_requests() {  # $1 = full|good
    local mode="$1" c round
    for c in 1 2 3; do
      echo "{\"id\":\"g$c-open\",\"op\":\"open\",\"session\":\"s$c\",\"dir\":\"$WORK/scenario\"}"
    done
    for round in 1 2 3; do
      for c in 1 2 3; do
        echo "{\"id\":\"g$c-est$round\",\"op\":\"estimate\",\"session\":\"s$c\",\"quality\":\"low\",\"format\":\"json\"}"
        echo "{\"id\":\"g$c-explain$round\",\"op\":\"estimate\",\"session\":\"s$c\",\"explain\":true,\"format\":\"json\"}"
        if [[ "$mode" == "full" ]]; then
          echo "{\"id\":\"f$c-est$round\",\"op\":\"estimate\",\"session\":\"s$c\",\"faults\":\"engine.assess:once\"}"
          echo "{\"id\":\"f$c-task$round\",\"op\":\"estimate\",\"session\":\"s$c\",\"faults\":\"parallel.task:n=3\",\"format\":\"json\"}"
          echo "{\"id\":\"d$c-est$round\",\"op\":\"estimate\",\"session\":\"s$c\",\"deadline_ms\":0}"
        fi
      done
      if [[ "$mode" == "full" ]]; then
        echo "{\"id\":\"b-ghost$round\",\"op\":\"estimate\",\"session\":\"ghost\"}"
      fi
    done
    for c in 1 2 3; do
      echo "{\"id\":\"g$c-assess\",\"op\":\"assess\",\"session\":\"s$c\",\"modules\":\"mapping\"}"
    done
    if [[ "$mode" == "full" ]]; then
      echo "{\"id\":\"b-open\",\"op\":\"open\",\"session\":\"s4\",\"dir\":\"$WORK/broken\"}"
      echo "this line is not json"
      echo "{\"id\":\"b-op\",\"op\":\"frobnicate\",\"session\":\"s1\"}"
    fi
    echo '{"id":"stats","op":"stats"}'
    echo '{"id":"shutdown","op":"shutdown"}'
  }
  emit_requests full > "$WORK/full.req"
  emit_requests good > "$WORK/good.req"

  # The watchdog grace is huge so every expired deadline fails at a
  # cooperative checkpoint with its fixed message — the watchdog's
  # force-fail text would race it and break byte-determinism.
  serve() {  # $1 = threads, stdin = requests, stdout = responses
    "$BUILD_DIR/tools/efes_serve" --workers=4 --threads="$1" \
      --watchdog-grace-ms=600000
  }
  # Responses interleave nondeterministically across strands; per-request
  # bytes must not. Sort by line and drop the stats snapshot (its
  # counters legitimately depend on how much work had finished).
  normalize() { grep -v '^{"id":"stats"' "$1" | LC_ALL=C sort; }

  for threads in 1 4 8; do
    serve "$threads" < "$WORK/full.req" > "$WORK/full-t$threads.out"
    normalize "$WORK/full-t$threads.out" > "$WORK/full-t$threads.sorted"
  done
  for threads in 4 8; do
    diff "$WORK/full-t1.sorted" "$WORK/full-t$threads.sorted"
  done

  # Contamination gate: the hostile mix must not change one byte of any
  # good response — same sessions, same estimates, with and without
  # faulted/deadline/bad siblings sharing the server.
  serve 4 < "$WORK/good.req" > "$WORK/good-t4.out"
  grep '^{"id":"g' "$WORK/good-t4.out" | LC_ALL=C sort > "$WORK/good-only.sorted"
  grep '^{"id":"g' "$WORK/full-t4.out" | LC_ALL=C sort > "$WORK/good-in-mix.sorted"
  diff "$WORK/good-only.sorted" "$WORK/good-in-mix.sorted"

  # A clean soak never retries an atomic write.
  grep '^{"id":"stats"' "$WORK/good-t4.out" | grep -q '"file_io.retries":0'

  # Graceful drain: a server parked on an open pipe must exit 0 on
  # SIGTERM after answering what it already read.
  mkfifo "$WORK/in"
  # Background the binary itself (not the serve() function — that would
  # put a subshell between $! and the server, and SIGTERM would kill the
  # subshell instead).
  "$BUILD_DIR/tools/efes_serve" --workers=4 --threads=4 \
    --watchdog-grace-ms=600000 < "$WORK/in" > "$WORK/sigterm.out" &
  SERVER=$!
  exec 3> "$WORK/in"
  printf '{"id":"p","op":"ping"}\n' >&3
  for _ in $(seq 100); do
    grep -q '"pong"' "$WORK/sigterm.out" 2>/dev/null && break
    sleep 0.1
  done
  grep -q '"pong"' "$WORK/sigterm.out"
  kill -TERM "$SERVER"
  DRAIN_EXIT=0
  wait "$SERVER" || DRAIN_EXIT=$?
  exec 3>&-
  if [[ "$DRAIN_EXIT" -ne 0 ]]; then
    echo "check_build: SIGTERM drain exited $DRAIN_EXIT, want 0" >&2
    exit 1
  fi
  echo "check_build: OK (serve soak: byte-identical across --threads=1/4/8, no contamination, clean drain)"
elif [[ "$MODE" == "bench" ]]; then
  BUILD_DIR="${1:-build-bench}"
  # The benches build as Release with warnings as errors, so a warning
  # that only optimized builds print (GCC's -Wrestrict, say) fails here;
  # run_benches.sh keeps the tree's configuration.
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DEFES_WERROR=ON
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT
  BENCH_OUT="$WORK/BENCH_perf.json" tools/run_benches.sh "$BUILD_DIR"
  COLD="$(grep -c '"cache":"cold"' "$WORK/BENCH_perf.json")"
  WARM="$(grep -c '"cache":"warm"' "$WORK/BENCH_perf.json")"
  if [[ "$COLD" -eq 0 || "$COLD" -ne "$WARM" ]]; then
    echo "check_build: expected matching cold/warm records, got $COLD/$WARM" >&2
    exit 1
  fi
  # Every line must be a self-contained JSON record carrying the
  # histogram quantile fields.
  python3 - "$WORK/BENCH_perf.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    for line in f:
        record = json.loads(line)
        assert "bench" in record and "wall_ms" in record, record
        assert any(key.endswith(".p95_ms") for key in record["counters"]), \
            "no histogram quantile fields in " + record["bench"]
EOF
  echo "check_build: OK (bench smoke, $COLD cold + $WARM warm JSON records)"
elif [[ "$MODE" == "scale" ]]; then
  BUILD_DIR="${1:-build-cache}"
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j --target efes_cli --target efes_fuzz
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT
  # A fuzz-generated source supplies realistic typed columns; awk
  # amplifies its body to 200k rows and prepends a unique uid column so
  # the exact distinct-value set cannot fit a 64 KiB sketch budget.
  "$BUILD_DIR/tools/efes_fuzz" generate "$WORK/scenario" --fuzz-seed=7
  SRC="$WORK/scenario/sources/fuzz_src2/data/s2_entity.csv"
  test -f "$SRC"
  awk -v target=200000 '
      NR == 1 { print "uid," $0; next }
      { body[++n] = $0 }
      END {
        rows = 0
        while (rows < target) {
          for (i = 1; i <= n && rows < target; i++) {
            rows++
            print "u" rows "_" i "," body[i]
          }
        }
      }' "$SRC" > "$WORK/big.csv"
  BUDGET=65536
  profile() {  # $1 = approx, $2 = chunk-rows, $3 = threads
    "$BUILD_DIR/tools/efes" profile "$WORK/big.csv" --approx="$1" \
      --chunk-rows="$2" --max-memory="$BUDGET" --threads="$3"
  }
  profile sketch 4096 1 > "$WORK/ref.txt"
  grep -q ': 200000 rows' "$WORK/ref.txt"
  grep -q ', sketch)' "$WORK/ref.txt"
  # The report must not depend on how the stream was cut or scheduled.
  for threads in 1 4 8; do
    for chunk in 4096 16384 0; do
      profile sketch "$chunk" "$threads" > "$WORK/out.txt"
      diff "$WORK/ref.txt" "$WORK/out.txt"
    done
  done
  # Auto degrades to the same sketch, byte for byte.
  profile auto 4096 4 > "$WORK/auto.txt"
  diff "$WORK/ref.txt" "$WORK/auto.txt"
  # Exact mode must refuse the budget rather than silently approximate.
  if profile exact 4096 1 > "$WORK/exact.out" 2> "$WORK/exact.err"; then
    echo "check_build: exact mode unexpectedly fit the memory budget" >&2
    exit 1
  fi
  grep -q 'approx=sketch' "$WORK/exact.err"
  # The refusal counts the bytes at the first overflow, so it too must
  # not depend on how the stream was cut or scheduled.
  for threads in 1 4 8; do
    for chunk in 256 4096 16384 0; do
      if profile exact "$chunk" "$threads" > /dev/null 2> "$WORK/refusal.err"; then
        echo "check_build: exact mode unexpectedly fit the memory budget" >&2
        exit 1
      fi
      diff "$WORK/exact.err" "$WORK/refusal.err"
    done
  done
  # Column `early` overflows rows before column `late` does, but the
  # refusal must name the lowest-numbered column that overflows at all,
  # however the stream is cut.
  awk 'BEGIN {
      print "late,early"
      for (i = 1; i <= 400; i++) print (i <= 200 ? "x" : "late-" i) ",e" i
    }' > "$WORK/two.csv"
  refuse_two() {  # $1 = chunk-rows, $2 = threads
    ! "$BUILD_DIR/tools/efes" profile "$WORK/two.csv" --approx=exact \
      --max-memory=3000 --chunk-rows="$1" --threads="$2" > /dev/null
  }
  refuse_two 0 1 2> "$WORK/two.err"
  grep -q 'approx=sketch' "$WORK/two.err"
  for threads in 1 4; do
    for chunk in 1 7 64; do
      refuse_two "$chunk" "$threads" 2> "$WORK/two_other.err"
      diff "$WORK/two.err" "$WORK/two_other.err"
    done
  done
  echo "check_build: OK (profile scale: 200k rows byte-identical across threads/chunking, exact refused budget identically)"
else
  BUILD_DIR="${1:-build-werror}"
  cmake -B "$BUILD_DIR" -S . -DEFES_WERROR=ON
  cmake --build "$BUILD_DIR" -j
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j
  echo "check_build: OK (EFES_WERROR=ON, all tests passed)"
fi
