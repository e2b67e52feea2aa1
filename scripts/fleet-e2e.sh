#!/usr/bin/env bash
# fleet-e2e.sh — end-to-end gate for the distributed data plane.
#
# Boots a real contexpd control plane plus three contexp-agent edge
# processes, enacts a canary -> promote strategy over HTTP, and asserts:
#
#   1. all three agents connect and converge on the initial snapshot;
#   2. the phase transitions propagate: after the run succeeds, every
#      agent's applied version equals the control plane's current
#      version, /healthz's fleet block counts three connected agents, no
#      lag and no catch-up, and a local /v1/resolve answers with the
#      promoted candidate version;
#   3. fail-static: with the control plane killed, agents keep
#      resolving from their last snapshot and report themselves stale
#      after the lease expires.
#
# Needs: go, curl, jq. Exits non-zero on the first failed assertion.
set -euo pipefail

CP_PORT=${CP_PORT:-18080}
AGENT_PORTS=(17081 17082 17083)
CP=http://127.0.0.1:$CP_PORT

workdir=$(mktemp -d)
pids=()
cleanup() {
    kill "${pids[@]}" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    echo "--- control plane log ---" >&2
    cat "$workdir/contexpd.log" >&2 || true
    echo "--- agent logs ---" >&2
    cat "$workdir"/agent-*.log >&2 || true
    exit 1
}

# poll <deadline-seconds> <description> <cmd...> — retry cmd until it
# succeeds (exit 0) or the deadline passes. A timeout shows the run's
# event trail before the process logs: what the engine decided, and why.
poll() {
    local deadline=$1 what=$2
    shift 2
    local end=$((SECONDS + deadline))
    while ((SECONDS < end)); do
        if "$@" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "--- GET /v1/runs/fleet-e2e ---" >&2
    curl -sS "$CP/v1/runs/fleet-e2e" >&2 || true
    echo >&2
    fail "timed out after ${deadline}s waiting for: $what"
}

echo "== building binaries"
go build -o "$workdir/contexpd" ./cmd/contexpd
go build -o "$workdir/contexp-agent" ./cmd/contexp-agent

echo "== starting control plane on :$CP_PORT"
"$workdir/contexpd" --addr ":$CP_PORT" --check-interval 250ms \
    --fleet-heartbeat 500ms >"$workdir/contexpd.log" 2>&1 &
pids+=($!)
poll 15 "control plane /healthz" curl -fsS "$CP/healthz"

echo "== starting 3 agents"
for i in 0 1 2; do
    port=${AGENT_PORTS[$i]}
    "$workdir/contexp-agent" --control "$CP" --addr "127.0.0.1:$port" \
        --id "e2e-agent-$i" --heartbeat 300ms --lease 2s \
        >"$workdir/agent-$i.log" 2>&1 &
    pids+=($!)
done

agents_converged() {
    curl -fsS "$CP/v1/agents" | jq -e '
        (.items | length) == 3
        and ([.items[] | select(.connected)] | length) == 3
        and ([.items[].appliedVersion] | min) == .currentVersion'
}
poll 15 "3 agents connected and converged" agents_converged
echo "   fleet converged on version $(curl -fsS "$CP/v1/agents" | jq .currentVersion)"

echo "== seeding metrics and launching a canary -> promote strategy"
obs='{"metric":"response_time","service":"svc","version":"VER","value":40}'
batch=$(jq -n --argjson o "${obs/VER/v1}" --argjson p "${obs/VER/v2}" \
    '{observations: [$o,$p,$o,$p,$o,$p,$o,$p,$o,$p]}')
curl -fsS -X POST "$CP/v1/metrics" -d "$batch" >/dev/null

curl -fsS -X POST "$CP/v1/strategies" --data-binary @- <<'EOF' >/dev/null
strategy "fleet-e2e" {
    service   = "svc"
    baseline  = "v1"
    candidate = "v2"
    phase "canary" {
        practice = canary
        traffic  = 50%
        duration = 1s
        check "latency" {
            metric    = response_time
            aggregate = mean
            max       = 100
            interval  = 250ms
            window    = 1m
        }
        on success -> promote
        on failure -> rollback
    }
}
EOF

run_succeeded() {
    curl -fsS "$CP/v1/runs/fleet-e2e" | jq -e '.status == "succeeded"'
}
poll 30 "run fleet-e2e to succeed" run_succeeded
echo "   run succeeded (candidate promoted)"

poll 15 "agents to converge on the promoted table" agents_converged
ver=$(curl -fsS "$CP/v1/agents" | jq .currentVersion)
echo "   fleet converged on version $ver"

curl -fsS "$CP/healthz" | jq -e '
    .fleet.connectedAgents == 3 and .fleet.maxLag == 0 and .fleet.catchUps == 0' >/dev/null \
    || fail "/healthz fleet block after convergence: $(curl -fsS "$CP/healthz" | jq -c .fleet)"
echo "   /healthz: 3 connected agents, maxLag 0, catchUps 0"

for port in "${AGENT_PORTS[@]}"; do
    got=$(curl -fsS "http://127.0.0.1:$port/v1/resolve?service=svc&user=u1" | jq -r .version)
    [[ $got == v2 ]] || fail "agent :$port resolves svc -> $got, want promoted v2"
done
echo "   all agents resolve svc -> v2 locally"

echo "== killing the control plane; agents must fail static"
kill "${pids[0]}"
wait "${pids[0]}" 2>/dev/null || true
sleep 2.5 # past the 2s lease

for port in "${AGENT_PORTS[@]}"; do
    curl -fsS "http://127.0.0.1:$port/healthz" | jq -e '.stale == true' >/dev/null \
        || fail "agent :$port not stale after control plane death + lease expiry"
    got=$(curl -fsS "http://127.0.0.1:$port/v1/resolve?service=svc&user=u1" | jq -r .version)
    [[ $got == v2 ]] || fail "agent :$port stopped serving after control plane death (got $got)"
done
echo "   agents serve the last snapshot and report stale"

echo "PASS: fleet e2e (3 agents: converge, propagate, fail static)"
