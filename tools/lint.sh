#!/usr/bin/env bash
# Project-specific lint rules that grep can enforce — fast, dependency-free,
# and runnable in any environment (CI runs it on every push).
#
#   1. No nondeterminism in src/: rand()/srand()/time(), random_device,
#      wall-clock seeding. Reproducibility is a core design goal (training
#      must be bit-for-bit repeatable across thread counts and resumes);
#      all randomness must flow through common/random.h's seeded Rng and all
#      timing through common/stopwatch.h (steady_clock).
#   2. No raw new/delete in src/: ownership goes through containers and
#      smart pointers; the nn hot paths use caller-owned workspaces.
#   3. No float in the nn kernels: the numerical core is double-precision
#      end to end (see DESIGN.md); a stray float silently truncates
#      gradients and breaks the finite-difference audit.
#   4. Every src/ .cc has a matching test reference: each implementation
#      stem must be mentioned by at least one tests/*.cc, so new subsystems
#      cannot land untested.
#   5. No raw stderr/stdout telemetry in src/core, src/nn, src/serve: ad-hoc
#      printf debugging does not survive review. Telemetry flows through
#      src/obs/ (metrics registry, trace spans, JSONL sink); the only
#      sanctioned stderr paths are common/check.cc's contract-failure
#      reporting and the flight recorder's crash dump. The same rule bans
#      ad-hoc std::chrono timing in src/serve and src/retrieval: request
#      timing flows through Stopwatch / SleepForMillis (common/stopwatch.h)
#      and obs::Span (obs/trace.h), so every measurement a request sees also
#      lands in its trace — a raw steady_clock::now() pair is latency the
#      span tree cannot attribute.
#   6. No raw POSIX I/O in src/store outside store/file.cc: every durability
#      write must flow through the File/FileFactory seam so the fault
#      harness can intercept it and so short writes / EINTR are handled in
#      exactly one place. An unchecked write()/fsync() elsewhere is a
#      durability hole the crash tests cannot see.
#   7. No raw std:: locking primitives in src/ outside common/sync.{h,cc}:
#      every mutex must be a neutraj::Mutex / SharedMutex so it carries the
#      Clang Thread Safety capability annotations and a lock rank. A raw
#      std::mutex is invisible to both enforcement layers — the static
#      analysis cannot see what it guards and the runtime rank checker
#      cannot order it. common/sync.cc itself is exempt: it wraps the std
#      primitives (including CondVar's internal std::unique_lock adoption,
#      which is how a wrapped mutex waits on a std::condition_variable).
#   8. No hand-rolled float distance math in src/retrieval outside
#      retrieval/kernels.{h,cc}: the retrieval subsystem's answers are
#      bit-identical to the exact scan only because every float distance
#      flows through the kernel seam (whose accumulation order mirrors
#      nn::L2Distance) or through the core scan itself. A stray
#      nn::L2Distance call or sqrt in an IVF scan loop is a second
#      accumulation order waiting to diverge. (Raw std:: locking in
#      src/retrieval is already banned repo-wide by rule 7.)
#   9. Every request-trace stage recorded in src/ under a literal name —
#      obs::Span s("x", hist, trace) with a trace other than nullptr, or
#      ->Record("x", ...) — is listed in kSlowLogStages
#      (src/obs/reqtrace.cc). An unlisted stage still feeds
#      its reqtrace/stage/<x>_us histogram, but the slow-query log would
#      fold it silently into other_us.
#  10. Every BENCH_*.json at the repository root parses as JSON
#      (python3 -m json.tool): a bench that prints nan or inf, which JSON
#      has no literal for, leaves a file no consumer can read.
#  11. No line of a .cc/.h under src/, tests/, tools/ or bench/ is longer
#      than 84 characters (.clang-format's ColumnLimit), counted as UTF-8
#      characters with python3, so hosts without clang-format catch the
#      lines tools/format_check.sh would reject.
#  12. No std::exp / std::tanh (or the C exp/tanh/expm1) in src/nn/ outside
#      the kernel TUs nn/matrix.cc and nn/kernels_avx2.cc: every activation
#      goes through ExpInto / SigmoidInto / TanhInto / SoftmaxInPlace, whose
#      portable and AVX2 forms agree bit for bit. A stray libm call is a
#      second activation numerics that the forced-kernel tests cannot see.
#
# Usage: tools/lint.sh   (from anywhere; exits non-zero on any violation)

set -u
cd "$(dirname "$0")/.."

fail=0
report() {
  echo "lint.sh: $1" >&2
  echo "$2" | sed 's/^/    /' >&2
  fail=1
}

# -- Rule 1: nondeterminism --------------------------------------------------
# \brand( also catches srand(; time( catches time(nullptr)/time(0) seeding.
pattern='\brand\(|\bsrand\(|[^_a-zA-Z]time\(|std::random_device|system_clock'
hits=$(grep -rnE "$pattern" src/ --include='*.cc' --include='*.h' || true)
if [[ -n "$hits" ]]; then
  report "nondeterminism in src/ (use the seeded Rng / Stopwatch instead)" "$hits"
fi

# -- Rule 2: raw new/delete --------------------------------------------------
hits=$(grep -rnE '\bnew +[A-Za-z_]|\bdelete +[A-Za-z_*]|\bdelete\[\]' \
    src/ --include='*.cc' --include='*.h' \
    | grep -vE '= *delete|//.*\b(new|delete)\b' || true)
if [[ -n "$hits" ]]; then
  report "raw new/delete in src/ (use containers or smart pointers)" "$hits"
fi

# -- Rule 3: float in the nn kernels ----------------------------------------
hits=$(grep -rnE '\bfloat\b' src/nn/ || true)
if [[ -n "$hits" ]]; then
  report "float in src/nn/ (the numerical core is double-precision only)" "$hits"
fi

# -- Rule 4: every src/ .cc has a test reference ----------------------------
missing=""
for cc in $(find src -name '*.cc' | sort); do
  stem=$(basename "$cc" .cc)
  if ! grep -rql "$stem" tests/ --include='*.cc' --include='*.h'; then
    missing+="$cc"$'\n'
  fi
done
if [[ -n "$missing" ]]; then
  report "src/ files with no reference from any test" "$missing"
fi

# -- Rule 5: no raw telemetry in core/nn/serve ------------------------------
# All printf/cerr reporting in the numerical core and the serving layer must
# go through src/obs/ so it is structured, rate-controlled and testable.
hits=$(grep -rnE 'std::cerr|std::cout|\bprintf\(|\bfprintf\(' \
    src/core/ src/nn/ src/serve/ --include='*.cc' --include='*.h' \
    | grep -vE '^[^:]*:[0-9]+: *//' || true)
if [[ -n "$hits" ]]; then
  report "raw stderr/stdout telemetry in src/core|nn|serve (use src/obs/)" "$hits"
fi
# Ad-hoc std::chrono timing in the serving/retrieval layers: all request
# timing goes through common/stopwatch.h (Stopwatch, SleepForMillis) or
# obs::Span so the request's span tree sees it too.
hits=$(grep -rnE 'std::chrono|steady_clock|high_resolution_clock' \
    src/serve/ src/retrieval/ --include='*.cc' --include='*.h' \
    | grep -vE '^[^:]*:[0-9]+: *(//|\*)' || true)
if [[ -n "$hits" ]]; then
  report "ad-hoc std::chrono timing in src/serve|retrieval (use common/stopwatch.h)" "$hits"
fi

# -- Rule 6: raw POSIX I/O in src/store outside the File seam ----------------
# store/file.cc is the single sanctioned syscall site; everything else in
# src/store must go through File/FileFactory so FaultyFile can intercept it.
hits=$(grep -rnE '::write\(|::pwrite\(|::fsync\(|::fdatasync\(|::ftruncate\(|::rename\(|\bfwrite\(|\bfopen\(' \
    src/store/ --include='*.cc' --include='*.h' \
    | grep -v '^src/store/file\.cc:' \
    | grep -vE '^[^:]*:[0-9]+: *//' || true)
if [[ -n "$hits" ]]; then
  report "raw POSIX I/O in src/store outside store/file.cc (use the File seam)" "$hits"
fi

# -- Rule 7: raw std:: locking primitives outside common/sync ----------------
# All locking goes through the annotated wrappers in common/sync.h so the
# thread-safety analysis and the lock-rank checker both see every mutex.
hits=$(grep -rnE 'std::(mutex|shared_mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|shared_timed_mutex|lock_guard|unique_lock|shared_lock|scoped_lock|condition_variable)\b' \
    src/ --include='*.cc' --include='*.h' \
    | grep -vE '^src/common/sync\.(h|cc):' \
    | grep -vE '^[^:]*:[0-9]+: *(//|\*)' || true)
if [[ -n "$hits" ]]; then
  report "raw std:: locking primitive in src/ (use common/sync.h wrappers)" "$hits"
fi

# -- Rule 8: retrieval distance math outside the kernel seam -----------------
# retrieval/kernels.{h,cc} is the single sanctioned float-distance site in
# src/retrieval; everything else delegates to it (or to the core scan, which
# it mirrors bit for bit). See DESIGN.md "Retrieval architecture".
hits=$(grep -rnE 'nn::L2Distance|std::sqrt\(|std::hypot\(|std::pow\(' \
    src/retrieval/ --include='*.cc' --include='*.h' \
    | grep -vE '^src/retrieval/kernels\.(h|cc):' \
    | grep -vE '^[^:]*:[0-9]+: *(//|\*)' || true)
if [[ -n "$hits" ]]; then
  report "float distance math in src/retrieval outside kernels.{h,cc}" "$hits"
fi

# -- Rule 9: recorded stage names are slow-log columns ------------------------
listed=$(sed -n '/kSlowLogStages\[\] = {/,/};/p' src/obs/reqtrace.cc \
    | grep -oE '"[a-z_0-9]+"' | tr -d '"' | sort -u)
# Comments stripped and lines joined, so a declaration wrapped over several
# lines is still seen whole. A span whose trace argument is nullptr feeds only
# its histogram; every other named span can reach a request tree.
joined=$(find src/ -name '*.cc' -o -name '*.h' | sort | xargs sed -e 's://.*$::' \
    | tr '\n' ' ')
recorded=$( {
  echo "$joined" \
    | grep -oE '\bSpan[[:space:]]+[A-Za-z_0-9]+[({][[:space:]]*"[^"]*"[[:space:]]*,[^,;]*,[^;]*;' \
    | grep -vE ',[[:space:]]*nullptr[[:space:]]*[)}][[:space:]]*;$' \
    | grep -oE '[({][[:space:]]*"[^"]*"'
  echo "$joined" | grep -oE -- '->Record\([[:space:]]*"[^"]*"'
} | grep -oE '"[^"]*"$' | tr -d '"' | sort -u)
if [[ -z "$listed" ]]; then
  report "cannot read kSlowLogStages from src/obs/reqtrace.cc" ""
fi
hits=$(comm -13 <(echo "$listed") <(echo "$recorded"))
if [[ -n "$hits" ]]; then
  report "stage recorded in src/ but missing from kSlowLogStages (src/obs/reqtrace.cc)" "$hits"
fi

# -- Rule 10: bench results are valid JSON ------------------------------------
hits=""
for f in BENCH_*.json; do
  [[ -e "$f" ]] || continue
  python3 -m json.tool "$f" >/dev/null 2>&1 || hits+="$f"$'\n'
done
if [[ -n "$hits" ]]; then
  report "BENCH_*.json that is not valid JSON" "$hits"
fi

# -- Rule 11: the format job's column limit ------------------------------------
hits=$(python3 - <<'PY'
import pathlib
for root in ("src", "tests", "tools", "bench"):
    for path in sorted(pathlib.Path(root).rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            if len(line) > 84:
                print(f"{path}:{number}: {len(line)} characters")
PY
)
if [[ -n "$hits" ]]; then
  report "lines over .clang-format's 84-column limit" "$hits"
fi

# -- Rule 12: one activation numerics in src/nn ---------------------------------
# Comments are stripped first, so prose such as "tanh(c)" does not count.
hits=$(grep -rnE '(std::|\b)(exp|expm1|tanh)\(' \
    src/nn/ --include='*.cc' --include='*.h' \
    | grep -vE '^src/nn/(matrix|kernels_avx2)\.cc:' \
    | sed -E 's://.*$::' \
    | grep -E '^[^:]*:[0-9]+:.*(std::|\b)(exp|expm1|tanh)\(' || true)
if [[ -n "$hits" ]]; then
  report "exp/tanh in src/nn outside nn/matrix.cc, nn/kernels_avx2.cc" "$hits"
fi

if [[ "$fail" -ne 0 ]]; then
  exit 1
fi
echo "lint.sh: OK"
