package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/journal"
)

type sseMessage struct {
	id          int
	event, data string
}

// recoveredLongRun recovers a run "long" from a journal holding its
// launch and its first phase's entry — three events — and `checks`
// check results.
func recoveredLongRun(t *testing.T, checks int) (*env, *bifrost.Run) {
	t.Helper()
	at := time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)
	jnl := &journal.Memory{}
	appendRecord := func(fields map[string]any) {
		fields["run"], fields["v"], fields["at"] = "long", 1, at
		rec, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	appendRecord(map[string]any{"type": "run-launched", "strategy": longDSL})
	appendRecord(map[string]any{"type": "traffic-applied", "detail": "baseline=100%"})
	appendRecord(map[string]any{"type": "phase-entered", "phase": "hold"})
	for i := 0; i < checks; i++ {
		appendRecord(map[string]any{"type": "check-result", "phase": "hold", "check": "latency",
			"outcome": 1, "detail": fmt.Sprintf("value=%d <&>", i)})
	}

	e := newJournalEnv(t, jnl)
	if rep, err := e.engine.Recover(jnl); err != nil || len(rep.Runs) != 1 {
		t.Fatalf("recover: %v, %v", rep, err)
	}
	run, _ := e.engine.Get("long")
	return e, run
}

// streamLong opens the run's event stream, with a Last-Event-ID header
// unless lastEventID is empty, and returns its messages up to and
// including run-status. After `abortAfter` messages it aborts the run,
// so that what follows arrives through the live tail.
func streamLong(t *testing.T, e *env, run *bifrost.Run, lastEventID string, abortAfter int) []sseMessage {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, e.ts.URL+"/v1/runs/long/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	messages := make(chan sseMessage, 64) // the reader runs ahead of the checks below
	go func() {
		defer close(messages)
		scanner := bufio.NewScanner(resp.Body)
		var m sseMessage
		for scanner.Scan() {
			line := scanner.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				m.id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
			case strings.HasPrefix(line, "event: "):
				m.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				m.data = strings.TrimPrefix(line, "data: ")
			case line == "":
				messages <- m
				m = sseMessage{}
			}
		}
	}()

	var got []sseMessage
	timeout := time.After(20 * time.Second)
	for {
		select {
		case m, ok := <-messages:
			if !ok {
				t.Fatalf("stream ended after %d messages without run-status", len(got))
			}
			got = append(got, m)
			if m.event == "run-status" {
				return got
			}
			if len(got) == abortAfter {
				run.Abort()
			}
		case <-timeout:
			t.Fatalf("timed out after %d messages", len(got))
		}
	}
}

// checkStream holds got to the trail's events from index `from` on, each
// under its own index as id, and the closing run-status.
func checkStream(t *testing.T, run *bifrost.Run, got []sseMessage, from int) {
	t.Helper()
	events := run.Events()
	if len(got) != len(events)-from+1 {
		t.Fatalf("stream carried %d messages, want events %d–%d and run-status", len(got), from, len(events)-1)
	}
	for i, ev := range events[from:] {
		want, err := json.Marshal(eventView(ev))
		if err != nil {
			t.Fatal(err)
		}
		if m := got[i]; m.id != from+i || m.event != string(ev.Type) || m.data != string(want) {
			t.Fatalf("message %d = id %d event %q data %s\nwant id %d event %q data %s", i, m.id, m.event, m.data, from+i, ev.Type, want)
		}
	}
	last := got[len(got)-1]
	if want := fmt.Sprintf(`{"status":%q}`, run.Status()); last.id != len(events) || last.data != want {
		t.Errorf("run-status = id %d data %s, want id %d data %s", last.id, last.data, len(events), want)
	}
	if run.Status() == bifrost.StatusRunning {
		t.Error("run still running after the stream closed")
	}
}

// TestSSEReplaysAndTailsALongTrail streams a recovered run whose trail
// holds 10⁴ check results — replayed in one poll, from many trail chunks
// — and then the events its abort adds, which arrive through the tail
// poll. Message i must carry id i, the i-th event's type and its
// EventView JSON; run-status closes the stream with the next id.
func TestSSEReplaysAndTailsALongTrail(t *testing.T) {
	const checks = 10_000
	e, run := recoveredLongRun(t, checks)
	// The journaled history is through after checks+3 messages; what
	// follows is live.
	got := streamLong(t, e, run, "", checks+3)
	if n := run.EventCount(); n <= checks+3 {
		t.Fatalf("trail holds %d events, want recovery's and the abort's past the %d journaled", n, checks+3)
	}
	checkStream(t, run, got, 0)
}

// TestSSEResumesAfterLastEventID is an EventSource reconnecting: with
// Last-Event-ID 9 999 on a trail of 10⁴ + 3 journaled events it is sent
// ids 10 000 to 10 002, then what recovery and the abort add, never the
// replay. An id that is not a non-negative integer is ignored — the
// whole trail again — and one past the trail's end leaves only
// run-status.
func TestSSEResumesAfterLastEventID(t *testing.T) {
	const checks = 10_000
	e, run := recoveredLongRun(t, checks)
	got := streamLong(t, e, run, "9999", 3)
	if got[0].id != 10_000 || got[2].id != 10_002 || got[2].event != string(bifrost.EventCheckResult) {
		t.Fatalf("reconnecting after id 9999 began %+v", got[:3])
	}
	checkStream(t, run, got, 10_000)

	n := run.EventCount()
	for _, tc := range []struct {
		name, lastEventID string
		from              int
	}{
		{"garbage", "garbage", 0},
		{"negative", "-1", 0},
		{"fraction", "12.5", 0},
		{"overflow", "99999999999999999999999999", 0}, // no integer the server can hold
		{"last-but-one", strconv.Itoa(n - 2), n - 1},
		{"last", strconv.Itoa(n - 1), n},
		{"run-status", strconv.Itoa(n), n}, // run-status's own id
		{"past-the-end", "99999999999", n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkStream(t, run, streamLong(t, e, run, tc.lastEventID, -1), tc.from)
		})
	}
}
