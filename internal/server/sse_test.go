package server

import (
	"bufio"
	"encoding/json"
	"fmt"
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

// TestSSEReplaysAndTailsALongTrail streams a recovered run whose trail
// holds 10⁴ check results — replayed in one poll, from many trail chunks
// — and then the events its abort adds, which arrive through the tail
// poll. Message i must carry id i, the i-th event's type and its
// EventView JSON; run-status closes the stream with the next id.
func TestSSEReplaysAndTailsALongTrail(t *testing.T) {
	const checks = 10_000
	at := time.Date(2017, 12, 11, 9, 0, 0, 0, time.UTC)
	jnl := journal.NewMemory()
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

	resp, err := e.ts.Client().Get(e.ts.URL + "/v1/runs/long/events")
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
	aborted := false
	for terminal := false; !terminal; {
		select {
		case m, ok := <-messages:
			if !ok {
				t.Fatalf("stream ended after %d messages without run-status", len(got))
			}
			got = append(got, m)
			terminal = m.event == "run-status"
			if len(got) == checks+2 && !aborted {
				// The journaled history is through; what follows is live.
				aborted = true
				run.Abort()
			}
		case <-timeout:
			t.Fatalf("timed out after %d messages", len(got))
		}
	}

	events := run.Events()
	if len(events) <= checks+2 {
		t.Fatalf("trail holds %d events, want recovery's and the abort's past the %d journaled", len(events), checks+2)
	}
	if len(got) != len(events)+1 {
		t.Fatalf("stream carried %d messages, want %d events and run-status", len(got), len(events))
	}
	for i, ev := range events {
		want, err := json.Marshal(eventView(ev))
		if err != nil {
			t.Fatal(err)
		}
		if m := got[i]; m.id != i || m.event != string(ev.Type) || m.data != string(want) {
			t.Fatalf("message %d = id %d event %q data %s\nwant id %d event %q data %s", i, m.id, m.event, m.data, i, ev.Type, want)
		}
	}
	last := got[len(events)]
	if want := fmt.Sprintf(`{"status":%q}`, run.Status()); last.id != len(events) || last.data != want {
		t.Errorf("run-status = id %d data %s, want id %d data %s", last.id, last.data, len(events), want)
	}
	if run.Status() == bifrost.StatusRunning {
		t.Error("run still running after the stream closed")
	}
}
