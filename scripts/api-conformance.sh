#!/usr/bin/env bash
# api-conformance.sh — black-box conformance gate for the /v1 API.
#
# Boots a real contexpd with token auth and a per-tenant rate limit,
# then asserts the API contract documented in docs/API.md:
#
#   1. every non-2xx response is a typed {"error": {code, message}}
#      envelope with the documented stable code — including the mux's
#      own 404/405;
#   2. auth: guarded routes reject missing/unknown tokens with 401 +
#      WWW-Authenticate, /healthz stays open;
#   3. tenancy: two tenants run the same-named strategy on the
#      same-named service without contact, lists are scoped, and the
#      same-tenant service conflict is code "busy";
#   4. the per-tenant limiter returns 429 "rate_limited" + Retry-After;
#   5. request IDs echo through; paginated lists use {items}.
#
# Needs: go, curl, jq, GNU date. Exits non-zero on the first failed
# assertion.
set -euo pipefail

PORT=${PORT:-18090}
BASE=http://127.0.0.1:$PORT

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
    echo "--- contexpd log ---" >&2
    cat "$workdir/contexpd.log" >&2 || true
    exit 1
}

poll() {
    local deadline=$1 what=$2
    shift 2
    local end=$((SECONDS + deadline))
    while ((SECONDS < end)); do
        if "$@" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    fail "timed out after ${deadline}s waiting for: $what"
}

# req <token> <method> <path> [curl args...] — status into $status,
# body into $workdir/body, response headers into $workdir/headers.
# (Never call from a subshell: $status must reach the caller.)
status=
req() {
    local token=$1 method=$2 path=$3
    shift 3
    local auth=()
    [[ -n $token ]] && auth=(-H "Authorization: Bearer $token")
    status=$(curl -sS -o "$workdir/body" -D "$workdir/headers" \
        -w '%{http_code}' -X "$method" "${auth[@]}" "$@" "$BASE$path")
}

body() { cat "$workdir/body"; }

# expect <what> <got> <want>
expect() {
    [[ $2 == "$3" ]] || fail "$1: got $2, want $3"
}

# expect_error <what> <token> <method> <path> <status> <code>
expect_error() {
    local what=$1 token=$2 method=$3 path=$4 wantStatus=$5 wantCode=$6
    local code
    req "$token" "$method" "$path"
    expect "$what status" "$status" "$wantStatus"
    code=$(jq -er '.error.code' <"$workdir/body" 2>/dev/null) \
        || fail "$what: body is not a typed envelope: $(body)"
    expect "$what code" "$code" "$wantCode"
}

echo "== building contexpd"
go build -o "$workdir/contexpd" ./cmd/contexpd

echo "== starting contexpd with auth + rate limit on :$PORT"
"$workdir/contexpd" --addr ":$PORT" --data-dir "$workdir/data" \
    --auth-tokens 'acme=tok-a,beta=tok-b,ops=tok-o' \
    --rate-limit 50 --rate-burst 3 --http-log \
    >"$workdir/contexpd.log" 2>&1 &
pids+=($!)
poll 15 "contexpd /healthz" curl -fsS "$BASE/healthz"

echo "== auth: /healthz open, guarded routes reject bad credentials"
req "" GET /healthz
expect "open /healthz" "$status" 200
expect_error "missing token" ""      GET /v1/runs 401 unauthorized
grep -qi '^www-authenticate: bearer' "$workdir/headers" \
    || fail "401 should carry a WWW-Authenticate: Bearer challenge"
expect_error "unknown token" "nope"  GET /v1/runs 401 unauthorized

echo "== mux errors are typed envelopes"
expect_error "unknown route" tok-a GET    /v1/definitely-not-a-route 404 not_found
grep -qi '^content-type: application/json' "$workdir/headers" \
    || fail "mux 404 should be application/json"
expect_error "wrong method"  tok-a DELETE /v1/runs 405 method_not_allowed
expect_error "missing run"   tok-a GET    /v1/runs/absent 404 not_found
expect_error "bad cursor"    tok-a GET    '/v1/runs?cursor=banana' 400 invalid_request

echo "== tenancy: same strategy + service under two tenants, no contact"
dsl='strategy "conf" {
    service   = "svc"
    baseline  = "v1"
    candidate = "v2"
    phase "hold" {
        practice = canary
        traffic  = 50%
        duration = 60s
        on success -> promote
    }
}'
req tok-a POST /v1/strategies --data-binary "$dsl"
expect "acme submit" "$status" 201
req tok-b POST /v1/strategies --data-binary "$dsl"
expect "beta submit (same name, same service)" "$status" 201

req tok-a GET /v1/runs
jq -e '(.items | length) == 1 and .items[0].tenant == "acme"' <"$workdir/body" >/dev/null \
    || fail "acme should list exactly its own run: $(body)"

# The daemon runs a scheduler, so a same-tenant service conflict
# queues (202 + queue entry) rather than erroring; withdrawing the
# queued submission is a 202 dequeue. (The schedulerless engine path
# returns 409 "busy"; internal/server's tests cover that.)
req tok-b POST /v1/strategies --data-binary "${dsl/conf/conf2}"
expect "same-tenant service conflict queues" "$status" 202
# The 202 body is the queue entry; its projected start is the launch
# rule played forward, so it cannot precede the blocking run's
# estimated end.
planned=$(jq -er '.plannedStart' <"$workdir/body") \
    || fail "queued entry carries no plannedStart: $(body)"
req tok-b GET /v1/schedule
estEnd=$(jq -er '.running[0].estEnd' <"$workdir/body") \
    || fail "schedule shows no blocking run: $(body)"
(($(date -d "$planned" +%s%N) >= $(date -d "$estEnd" +%s%N))) \
    || fail "plannedStart $planned precedes the blocking run's estEnd $estEnd"
jq -e 'has("planFitness") | not' <"$workdir/body" >/dev/null \
    || fail "schedule snapshot still carries planFitness: $(body)"
req tok-b DELETE /v1/runs/conf2
expect "withdraw queued submission" "$status" 202
jq -e '.status == "dequeued"' <"$workdir/body" >/dev/null \
    || fail "withdrawing a queued submission should dequeue: $(body)"

echo "== per-tenant rate limit: burst exhausts into 429 rate_limited"
throttled=0
for _ in $(seq 1 20); do
    req tok-o GET /v1/runs || true
    if [[ $status == 429 ]]; then throttled=1; break; fi
done
[[ $throttled == 1 ]] || fail "20 rapid requests never throttled"
jq -e '.error.code == "rate_limited"' <"$workdir/body" >/dev/null \
    || fail "429 body should carry code rate_limited: $(body)"
grep -qi '^retry-after:' "$workdir/headers" \
    || fail "429 should carry Retry-After"
# acme is untouched by ops' throttling.
req tok-a GET /v1/runs
expect "other tenant after ops throttle" "$status" 200

echo "== request IDs echo through"
req tok-a GET /v1/runs -H 'X-Request-Id: conformance-1'
grep -qi '^x-request-id: conformance-1' "$workdir/headers" \
    || fail "inbound X-Request-Id should echo on the response"

echo "== admin surface"
req tok-b GET /v1/admin/tenants
expect "admin tenants" "$status" 200
jq -e '[.items[].name] | index("acme") != null' <"$workdir/body" >/dev/null \
    || fail "admin tenants should list acme: $(body)"

echo "PASS: API conformance (envelopes, auth, tenancy, rate limit, request IDs)"
