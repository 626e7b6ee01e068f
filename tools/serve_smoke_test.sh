#!/usr/bin/env bash
# End-to-end smoke test for the query server: generate a tiny corpus, train a
# throwaway model, start neutraj_server on an ephemeral port, exercise every
# endpoint with neutraj_client, then check that SIGTERM drains to exit 0.
#
# Usage: tools/serve_smoke_test.sh <build-dir>
set -euo pipefail

BUILD="${1:-build}"
WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [[ -n "${SERVER_PID}" ]] && kill -0 "${SERVER_PID}" 2>/dev/null; then
    kill -KILL "${SERVER_PID}" 2>/dev/null || true
  fi
  rm -rf "${WORK}"
}
trap cleanup EXIT

CLI="${BUILD}/tools/neutraj_cli"
SERVER="${BUILD}/tools/neutraj_server"
CLIENT="${BUILD}/tools/neutraj_client"
for bin in "${CLI}" "${SERVER}" "${CLIENT}"; do
  [[ -x "${bin}" ]] || { echo "missing binary: ${bin}" >&2; exit 1; }
done

echo "== generate + train a tiny model =="
"${CLI}" generate --preset porto --scale 0.05 --seed 7 --out "${WORK}/corpus.csv"
"${CLI}" train --data "${WORK}/corpus.csv" --epochs 2 --dim 16 \
  --out "${WORK}/model.ntj"

echo "== start server =="
"${SERVER}" --model "${WORK}/model.ntj" --data "${WORK}/corpus.csv" \
  --port 0 --port-file "${WORK}/port" --threads 2 --trace-sample-every 1 \
  --save-db "${WORK}/final.embdb" >"${WORK}/server.log" 2>&1 &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 100); do
  if [[ -s "${WORK}/port" ]]; then PORT="$(cat "${WORK}/port")"; break; fi
  kill -0 "${SERVER_PID}" 2>/dev/null || {
    echo "server died during startup:" >&2; cat "${WORK}/server.log" >&2; exit 1
  }
  sleep 0.1
done
[[ -n "${PORT}" ]] || { echo "server never wrote port file" >&2; exit 1; }
echo "server up on port ${PORT}"

TRAJ="0.0,0.0;30.0,40.0;60.0,80.0;90.0,120.0"

echo "== exercise every endpoint =="
"${CLIENT}" health --port "${PORT}"
"${CLIENT}" encode --port "${PORT}" --traj "${TRAJ}" >/dev/null
"${CLIENT}" pairsim --port "${PORT}" --a "${TRAJ}" --b "0.0,0.0;10.0,0.0"
"${CLIENT}" topk --port "${PORT}" --data "${WORK}/corpus.csv" --id 0 --k 5
"${CLIENT}" insert --port "${PORT}" --traj "${TRAJ}" | tee "${WORK}/insert.out"
grep -q "inserted as id" "${WORK}/insert.out"
"${CLIENT}" stats --port "${PORT}" | tee "${WORK}/stats.out"
grep -q "topk" "${WORK}/stats.out"
"${CLIENT}" stats --port "${PORT}" --prometheus >"${WORK}/stats.prom"
# A scraper rejects a second `# TYPE` line for one name.
DUPS="$(awk '/^# TYPE/{print $3}' "${WORK}/stats.prom" | sort | uniq -d)"
[[ -z "${DUPS}" ]] || { echo "duplicate Prometheus families: ${DUPS}" >&2; exit 1; }
grep -q "^# TYPE neutraj_serve_topk_requests counter" "${WORK}/stats.prom"
# --trace-sample-every 1 traced every request above.
"${CLIENT}" trace --port "${PORT}" --out "${WORK}/trace.json" | tee "${WORK}/trace.out"
grep -q "wrote [1-9][0-9]* trace(s)" "${WORK}/trace.out"

echo "== graceful drain on SIGTERM =="
kill -TERM "${SERVER_PID}"
RC=0
wait "${SERVER_PID}" || RC=$?
SERVER_PID=""
if [[ "${RC}" -ne 0 ]]; then
  echo "server exited with ${RC} after SIGTERM:" >&2
  cat "${WORK}/server.log" >&2
  exit 1
fi
grep -q "drained" "${WORK}/server.log"
[[ -s "${WORK}/final.embdb" ]] || { echo "missing saved db" >&2; exit 1; }

echo "serve smoke test: OK"
