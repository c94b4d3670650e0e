#!/usr/bin/env bash
# Multi-process loopback smoke test (CI gate for internal/transport,
# internal/supervisor, and manager replication).
#
# Leg 1 — cross-process self-healing: spawn a data-plane node process
# (workers + caches) and a control/serving process (front ends +
# manager + monitor) joined over 127.0.0.1, run a short TranSend
# workload from the serving side, and assert zero failed requests and
# zero wire/frame errors. Mid-run, the serving side SIGKILLs the peer
# process's cache0 through that process's supervisor daemon and
# asserts the manager's process-peer duty respawned it by supervisor
# delegation — still with zero failed requests. The serving process's
# -selftest mode performs all assertions and exits non-zero on any
# violation.
#
# Leg 2 — manager failover: three processes (data-plane hub; a rank-0
# manager-only process; a serving process hosting front ends plus a
# rank-1 standby manager replica). Mid-workload the script SIGKILLs
# the rank-0 manager's whole OS process; the standby must win the
# election (epoch >= 2) within the beacon-silence timeout, the workers
# and supervisors must re-anchor on it, and not one request may fail —
# the last singleton is gone.
#
# Leg 3 — overload degradation: a two-process topology whose single
# front end has a deliberately tiny admission bound and a short cache
# TTL. After a normal workload the serving process fires a concurrent
# burst past capacity and asserts the BASE ladder held: some requests
# degraded to stale cached data, the rest shed with the typed overload
# error, zero unexplained failures, zero wire errors.
#
# Leg 4 — end-to-end tracing: a two-process topology (data plane;
# serving plane with -trace-sample 1 and the HTTP API). One /fetch
# returns an X-Trace-Id header; /trace?id= on the serving process must
# then render a span tree recorded by BOTH OS processes, decomposing
# the request into front-end hops (this process) and worker
# queue-wait + service hops (the peer, crossed back as span digests on
# the report group). /metrics must expose the registry in Prometheus
# form and /status must be machine-readable JSON.
#
# Leg 5 — edge front door: four processes (data plane with the
# manager; two single-FE serving processes advertising HTTP adapters
# in their heartbeats; an edge-only process). A curl workload runs
# against the edge listener while one FE's OS process is SIGKILLed
# mid-loop: every request must still return 200 (transparent retry on
# the surviving replica), the edge must eject the dead backend, and
# after the FE process is restarted a half-open probe must readmit it
# — ejects >= 1 and readmits >= 1 on /status, zero failed requests,
# zero wire errors on the edge's /metrics.
set -euo pipefail
cd "$(dirname "$0")/.."

REQUESTS="${1:-150}"
PORT="${SMOKE_PORT:-7461}"

bin=$(mktemp -t sns-node.XXXXXX)
ctl_log=$(mktemp -t sns-ctl.XXXXXX.log)
hub_log=$(mktemp -t sns-hub.XXXXXX.log)
mgr_log=$(mktemp -t sns-mgr.XXXXXX.log)
srv_log=$(mktemp -t sns-srv.XXXXXX.log)
srv_out=$(mktemp -t sns-srv.XXXXXX.json)
ovl_log=$(mktemp -t sns-ovl.XXXXXX.log)
trc_log=$(mktemp -t sns-trc.XXXXXX.log)
tsv_log=$(mktemp -t sns-tsv.XXXXXX.log)
dp5_log=$(mktemp -t sns-dp5.XXXXXX.log)
fea_log=$(mktemp -t sns-fea.XXXXXX.log)
feb_log=$(mktemp -t sns-feb.XXXXXX.log)
edg_log=$(mktemp -t sns-edg.XXXXXX.log)
cleanup() {
    for pid in "${ctl_pid:-}" "${hub_pid:-}" "${mgr_pid:-}" "${srv_pid:-}" "${ovl_pid:-}" "${trc_pid:-}" "${tsv_pid:-}" \
               "${dp5_pid:-}" "${fea_pid:-}" "${feb_pid:-}" "${edg_pid:-}"; do
        [[ -n "${pid}" ]] && kill "${pid}" 2>/dev/null || true
        [[ -n "${pid}" ]] && wait "${pid}" 2>/dev/null || true
    done
    rm -f "${bin}" "${ctl_log}" "${hub_log}" "${mgr_log}" "${srv_log}" "${srv_out}" "${ovl_log}" "${trc_log}" "${tsv_log}" \
        "${dp5_log}" "${fea_log}" "${feb_log}" "${edg_log}"
}
trap cleanup EXIT

echo "smoke: building cmd/node..."
go build -o "${bin}" ./cmd/node

echo "smoke: starting data-plane process (worker,cache) on :${PORT}..."
"${bin}" -listen "tcp:127.0.0.1:${PORT}" -prefix ctl -roles worker,cache \
    -seed 1 >"${ctl_log}" 2>&1 &
ctl_pid=$!

echo "smoke: starting serving process (frontend,manager,monitor) with -selftest ${REQUESTS} -selftest-kill cache0..."
if ! out=$("${bin}" -listen tcp:127.0.0.1:0 -join "tcp:127.0.0.1:${PORT}" \
    -prefix srv -roles frontend,manager,monitor -cache-host ctl -seed 2 \
    -selftest "${REQUESTS}" -selftest-kill cache0 2> >(cat >&2)); then
    echo "smoke: FAILED — data-plane log:" >&2
    cat "${ctl_log}" >&2
    exit 1
fi
echo "${out}"

# Belt and braces on top of the selftest's own exit code: the JSON
# must show the delegated respawn actually happened.
if ! grep -q '"delegated_restarts":[1-9]' <<<"${out}"; then
    echo "smoke: FAILED — no delegated restart in selftest report" >&2
    cat "${ctl_log}" >&2
    exit 1
fi

# The large-body leg must have round-tripped a 512 KB blob through the
# remote cache partition — above the chunking threshold, so it crossed
# the TCP bridge as chunk fragments and reassembled on both hops. The
# selftest already failed on any wire/frame error; assert here that
# the chunked path actually ran (not just small frames).
if ! grep -q '"large_body_bytes":524288' <<<"${out}"; then
    echo "smoke: FAILED — large-body leg did not complete" >&2
    cat "${ctl_log}" >&2
    exit 1
fi
if ! grep -q '"reassembled":[1-9]' <<<"${out}"; then
    echo "smoke: FAILED — no chunk stream was reassembled on the serving side" >&2
    cat "${ctl_log}" >&2
    exit 1
fi

echo "smoke: OK — ${REQUESTS}+ requests plus a chunked 512 KB blob across two OS processes, zero failures, zero wire errors, cache0 respawned by supervisor delegation"

# Leg 1's data-plane process is done serving; stop it before the
# failover leg so the two clusters never share a port or a peer.
kill "${ctl_pid}" 2>/dev/null || true
wait "${ctl_pid}" 2>/dev/null || true
ctl_pid=

PORT2=$((PORT + 1))
echo "smoke: [failover] starting data-plane hub (worker,cache) on :${PORT2}..."
"${bin}" -listen "tcp:127.0.0.1:${PORT2}" -prefix hub -roles worker,cache \
    -seed 3 >"${hub_log}" 2>&1 &
hub_pid=$!

echo "smoke: [failover] starting rank-0 manager process..."
"${bin}" -listen tcp:127.0.0.1:0 -join "tcp:127.0.0.1:${PORT2}" \
    -prefix m0 -roles manager -manager-rank 0 -seed 4 >"${mgr_log}" 2>&1 &
mgr_pid=$!

echo "smoke: [failover] starting serving process (frontend,monitor + rank-1 standby manager) with -selftest ${REQUESTS}..."
# 30 ms spacing stretches the workload to ~5 s so the SIGKILL below
# lands mid-run; -selftest-expect-epoch 2 makes the serving process
# itself assert the standby won the election.
"${bin}" -listen tcp:127.0.0.1:0 -join "tcp:127.0.0.1:${PORT2}" \
    -prefix srv2 -roles frontend,manager,monitor -manager-rank 1 \
    -cache-host hub -seed 5 \
    -selftest "${REQUESTS}" -selftest-spacing 30ms -selftest-expect-epoch 2 \
    >"${srv_out}" 2>"${srv_log}" &
srv_pid=$!

for _ in $(seq 1 300); do
    grep -q "node: ready" "${srv_log}" 2>/dev/null && break
    sleep 0.1
done
if ! grep -q "node: ready" "${srv_log}"; then
    echo "smoke: [failover] FAILED — serving process never became ready" >&2
    cat "${srv_log}" "${mgr_log}" "${hub_log}" >&2
    exit 1
fi
sleep 1.5
echo "smoke: [failover] SIGKILLing the rank-0 manager's OS process mid-workload..."
kill -9 "${mgr_pid}" 2>/dev/null || true
wait "${mgr_pid}" 2>/dev/null || true
mgr_pid=

if ! wait "${srv_pid}"; then
    srv_pid=
    echo "smoke: [failover] FAILED — serving-process selftest:" >&2
    cat "${srv_out}" >&2
    cat "${srv_log}" "${hub_log}" >&2
    exit 1
fi
srv_pid=
out=$(cat "${srv_out}")
echo "${out}"

# Belt and braces on top of the selftest's own gates (zero failures,
# zero wire/frame errors, local primary at epoch >= 2): the JSON must
# show the election actually ran — a takeover, not a quiet reboot.
if ! grep -q '"failures":0' <<<"${out}" || ! grep -q '"wire_errors":0' <<<"${out}"; then
    echo "smoke: [failover] FAILED — failures or wire errors in report" >&2
    exit 1
fi
if ! grep -q '"manager_epoch":[2-9]' <<<"${out}"; then
    echo "smoke: [failover] FAILED — no epoch >= 2 in report" >&2
    exit 1
fi
if ! grep -q '"manager_takeovers":[1-9]' <<<"${out}"; then
    echo "smoke: [failover] FAILED — standby recorded no takeover" >&2
    exit 1
fi

echo "smoke: [failover] OK — rank-0 manager process SIGKILLed mid-workload, standby won epoch >= 2, zero failed requests, zero wire errors"

# Leg 2's hub is done; stop it before the overload leg for the same
# isolation reason as between legs 1 and 2.
kill "${hub_pid}" 2>/dev/null || true
wait "${hub_pid}" 2>/dev/null || true
hub_pid=

PORT3=$((PORT + 2))
echo "smoke: [overload] starting data-plane process (worker,cache) on :${PORT3}..."
"${bin}" -listen "tcp:127.0.0.1:${PORT3}" -prefix ovl -roles worker,cache \
    -seed 6 >"${ovl_log}" 2>&1 &
ovl_pid=$!

echo "smoke: [overload] starting serving process (1 frontend, inflight bound 2, cache TTL 500ms) with -selftest 40 -selftest-overload 64..."
# One front end so a shed surfaces to the client instead of failing
# over to a sibling; -fe-max-inflight 2 makes the concurrent burst of
# 64 trip admission control, and -cache-ttl 500ms lets the selftest's
# warm set expire into stale data the degraded path can serve.
if ! out=$("${bin}" -listen tcp:127.0.0.1:0 -join "tcp:127.0.0.1:${PORT3}" \
    -prefix srv3 -roles frontend,manager,monitor -cache-host ovl -seed 7 \
    -frontends 1 -fe-max-inflight 2 -cache-ttl 500ms \
    -selftest 40 -selftest-overload 64 2> >(cat >&2)); then
    echo "smoke: [overload] FAILED — data-plane log:" >&2
    cat "${ovl_log}" >&2
    exit 1
fi
echo "${out}"

# Belt and braces on top of the selftest's own gates: degraded-before-
# shed actually happened, every failure was a typed shed (the failure
# counter excludes sheds and must be zero), and nothing corrupted the
# wire under overload.
if ! grep -q '"shed":[1-9]' <<<"${out}"; then
    echo "smoke: [overload] FAILED — burst past capacity but nothing was shed" >&2
    exit 1
fi
if ! grep -q '"degraded":[1-9]' <<<"${out}"; then
    echo "smoke: [overload] FAILED — no degraded serves; the stale-cache ladder rung never ran" >&2
    exit 1
fi
if ! grep -q '"failures":0' <<<"${out}" || ! grep -q '"wire_errors":0' <<<"${out}"; then
    echo "smoke: [overload] FAILED — unexplained failures or wire errors under overload" >&2
    exit 1
fi

echo "smoke: [overload] OK — 64-deep burst against an inflight bound of 2: degraded serves plus typed sheds, zero unexplained failures, zero wire errors"

# Leg 3's data-plane process is done; stop it before the tracing leg.
kill "${ovl_pid}" 2>/dev/null || true
wait "${ovl_pid}" 2>/dev/null || true
ovl_pid=

PORT4=$((PORT + 3))
HTTP4="${SMOKE_HTTP_PORT:-$((PORT + 10))}"
echo "smoke: [trace] starting data-plane process (worker,cache) on :${PORT4}..."
"${bin}" -listen "tcp:127.0.0.1:${PORT4}" -prefix trc -roles worker,cache \
    -seed 8 >"${trc_log}" 2>&1 &
trc_pid=$!

echo "smoke: [trace] starting serving process with -trace-sample 1 and HTTP on :${HTTP4}..."
"${bin}" -listen tcp:127.0.0.1:0 -join "tcp:127.0.0.1:${PORT4}" \
    -prefix tsv -roles frontend,manager,monitor -cache-host trc -seed 9 \
    -trace-sample 1 -http "127.0.0.1:${HTTP4}" >"${tsv_log}" 2>&1 &
tsv_pid=$!

for _ in $(seq 1 300); do
    grep -q "node: http on" "${tsv_log}" 2>/dev/null && break
    sleep 0.1
done
if ! grep -q "node: http on" "${tsv_log}"; then
    echo "smoke: [trace] FAILED — serving process never exposed the HTTP API" >&2
    cat "${tsv_log}" "${trc_log}" >&2
    exit 1
fi

echo "smoke: [trace] fetching one object and extracting X-Trace-Id..."
trace_id=$(curl -fsS -D - -o /dev/null \
    "http://127.0.0.1:${HTTP4}/fetch?url=http://origin4.example/trace.sjpg" \
    | tr -d '\r' | grep -i '^x-trace-id:' | awk '{print $2}')
if [[ -z "${trace_id}" ]]; then
    echo "smoke: [trace] FAILED — /fetch returned no X-Trace-Id header" >&2
    cat "${tsv_log}" "${trc_log}" >&2
    exit 1
fi
echo "smoke: [trace] trace id ${trace_id}"

# The worker-side spans cross back on the next report tick; poll
# /trace until the tree covers both OS processes and decomposes the
# worker's part into queue-wait and service time.
tree=""
for _ in $(seq 1 100); do
    tree=$(curl -fsS "http://127.0.0.1:${HTTP4}/trace?id=${trace_id}" || true)
    if grep -q '"proc": "trc"' <<<"${tree}" && grep -q '"proc": "tsv"' <<<"${tree}" \
        && grep -q '"hop": "worker.queue"' <<<"${tree}" \
        && grep -q '"hop": "worker.service"' <<<"${tree}"; then
        break
    fi
    sleep 0.1
done
for want in '"proc": "trc"' '"proc": "tsv"' '"hop": "worker.queue"' '"hop": "worker.service"' "\"hop\": \"fe.request\""; do
    if ! grep -q "${want}" <<<"${tree}"; then
        echo "smoke: [trace] FAILED — span tree missing ${want}:" >&2
        echo "${tree}" >&2
        cat "${tsv_log}" "${trc_log}" >&2
        exit 1
    fi
done

# The metrics plane: Prometheus exposition on /metrics, machine-
# readable JSON on /status (with the old human dump behind
# ?format=text).
metrics=$(curl -fsS "http://127.0.0.1:${HTTP4}/metrics")
if ! grep -q '^sns_' <<<"${metrics}"; then
    echo "smoke: [trace] FAILED — /metrics has no sns_ samples" >&2
    exit 1
fi
status=$(curl -fsS "http://127.0.0.1:${HTTP4}/status")
if command -v python3 >/dev/null 2>&1; then
    if ! python3 -c 'import json,sys; json.load(sys.stdin)' <<<"${status}"; then
        echo "smoke: [trace] FAILED — /status is not valid JSON" >&2
        echo "${status}" >&2
        exit 1
    fi
fi
if ! grep -q '"san.' <<<"${status}"; then
    echo "smoke: [trace] FAILED — /status JSON missing san.* metrics" >&2
    echo "${status}" >&2
    exit 1
fi
text=$(curl -fsS "http://127.0.0.1:${HTTP4}/status?format=text")
if ! grep -q '^san: {Sent:' <<<"${text}"; then
    echo "smoke: [trace] FAILED — /status?format=text lost the human dump" >&2
    exit 1
fi

echo "smoke: [trace] OK — one X-Trace-Id resolved to a span tree recorded by both OS processes (fe.request on tsv, worker.queue + worker.service on trc); /metrics and JSON /status served"

# Leg 4's processes are done; stop them before the edge leg.
kill "${trc_pid}" "${tsv_pid}" 2>/dev/null || true
wait "${trc_pid}" 2>/dev/null || true
wait "${tsv_pid}" 2>/dev/null || true
trc_pid=
tsv_pid=

PORT5=$((PORT + 4))
EDGE5="${SMOKE_EDGE_PORT:-$((PORT + 11))}"
echo "smoke: [edge] starting data-plane process (manager,worker,cache,monitor) on :${PORT5}..."
"${bin}" -listen "tcp:127.0.0.1:${PORT5}" -prefix dp5 -roles manager,worker,cache,monitor \
    -seed 10 >"${dp5_log}" 2>&1 &
dp5_pid=$!

start_fe() { # start_fe <prefix> <seed> <log>
    "${bin}" -listen tcp:127.0.0.1:0 -join "tcp:127.0.0.1:${PORT5}" \
        -prefix "$1" -roles frontend -frontends 1 -fe-http 127.0.0.1 \
        -cache-host dp5 -seed "$2" >"$3" 2>&1 &
}
wait_ready() { # wait_ready <log> <label>
    for _ in $(seq 1 300); do
        grep -q "node: ready" "$1" 2>/dev/null && return 0
        sleep 0.1
    done
    echo "smoke: [edge] FAILED — $2 never became ready" >&2
    cat "$1" "${dp5_log}" >&2
    exit 1
}

echo "smoke: [edge] starting two single-FE serving processes with HTTP adapters..."
start_fe fea 11 "${fea_log}"
fea_pid=$!
start_fe feb 12 "${feb_log}"
feb_pid=$!
wait_ready "${fea_log}" "front-end process fea"
wait_ready "${feb_log}" "front-end process feb"

echo "smoke: [edge] starting edge-only process with the front door on :${EDGE5}..."
"${bin}" -listen tcp:127.0.0.1:0 -join "tcp:127.0.0.1:${PORT5}" \
    -prefix edg -roles edge -edge-listen "127.0.0.1:${EDGE5}" \
    -seed 13 >"${edg_log}" 2>&1 &
edg_pid=$!
for _ in $(seq 1 300); do
    grep -q "node: edge front door on" "${edg_log}" 2>/dev/null && break
    sleep 0.1
done
if ! grep -q "node: edge front door on" "${edg_log}"; then
    echo "smoke: [edge] FAILED — edge process never became ready" >&2
    cat "${edg_log}" "${fea_log}" "${feb_log}" "${dp5_log}" >&2
    exit 1
fi
# The edge must have learned BOTH replicas from heartbeats before the
# kill, or the eject/readmit assertions race pool discovery.
for _ in $(seq 1 100); do
    curl -fsS "http://127.0.0.1:${EDGE5}/status" 2>/dev/null | grep -q '"healthy":2' && break
    sleep 0.1
done
if ! curl -fsS "http://127.0.0.1:${EDGE5}/status" | grep -q '"healthy":2'; then
    echo "smoke: [edge] FAILED — edge pool never saw both front ends" >&2
    curl -fsS "http://127.0.0.1:${EDGE5}/status" >&2 || true
    cat "${edg_log}" >&2
    exit 1
fi

edge_fails=0
edge_get() {
    curl -fsS -o /dev/null --max-time 10 \
        "http://127.0.0.1:${EDGE5}/fetch?url=http://origin5.example/e$1.sbin" \
        || edge_fails=$((edge_fails + 1))
}

echo "smoke: [edge] warmup: 20 requests through the front door..."
for i in $(seq 1 20); do edge_get "w${i}"; done

echo "smoke: [edge] SIGKILLing front-end process feb mid-workload..."
( sleep 0.7; kill -9 "${feb_pid}" 2>/dev/null ) &
killer_pid=$!
for i in $(seq 1 60); do
    edge_get "k${i}"
    sleep 0.05
done
wait "${killer_pid}" 2>/dev/null || true
wait "${feb_pid}" 2>/dev/null || true
feb_pid=

if ! curl -fsS "http://127.0.0.1:${EDGE5}/status" | grep -q '"ejects":[1-9]'; then
    echo "smoke: [edge] FAILED — dead backend was never ejected" >&2
    curl -fsS "http://127.0.0.1:${EDGE5}/status" >&2 || true
    cat "${edg_log}" >&2
    exit 1
fi

echo "smoke: [edge] restarting front-end process feb..."
start_fe feb 12 "${feb_log}"
feb_pid=$!
wait_ready "${feb_log}" "restarted front-end process feb"

# Keep idempotent traffic flowing so the pool can risk a half-open
# probe against the respawned replica, and poll until it is readmitted.
readmitted=0
for i in $(seq 1 150); do
    edge_get "r${i}"
    if curl -fsS "http://127.0.0.1:${EDGE5}/status" 2>/dev/null | grep -q '"readmits":[1-9]'; then
        readmitted=1
        break
    fi
    sleep 0.1
done
if [[ "${readmitted}" != 1 ]]; then
    echo "smoke: [edge] FAILED — respawned backend was never readmitted" >&2
    curl -fsS "http://127.0.0.1:${EDGE5}/status" >&2 || true
    cat "${edg_log}" "${feb_log}" >&2
    exit 1
fi

if [[ "${edge_fails}" -ne 0 ]]; then
    echo "smoke: [edge] FAILED — ${edge_fails} client-visible request failures across the FE kill" >&2
    curl -fsS "http://127.0.0.1:${EDGE5}/status" >&2 || true
    cat "${edg_log}" >&2
    exit 1
fi

# Zero wire errors on the edge's own metrics plane, and the edge.*
# counters must be exposed there.
edge_metrics=$(curl -fsS "http://127.0.0.1:${EDGE5}/metrics")
if ! grep -q '^sns_edge_' <<<"${edge_metrics}"; then
    echo "smoke: [edge] FAILED — /metrics on the edge has no sns_edge_ samples" >&2
    exit 1
fi
if grep '^sns_.*wire_errors' <<<"${edge_metrics}" | grep -qv ' 0$'; then
    echo "smoke: [edge] FAILED — wire errors on the edge process" >&2
    grep '^sns_.*wire_errors' <<<"${edge_metrics}" >&2
    exit 1
fi

echo "smoke: [edge] OK — FE process SIGKILLed and restarted under load through the front door: zero failed requests, >=1 eject, >=1 probe readmission, zero wire errors"
