package bifrost

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"
)

// marshalRecord is the oracle appendRecord is held to: encoding/json's
// reflection over the wireRecord, which is how records were encoded
// before appendRecord.
func marshalRecord(run, tenant string, ev Event, strategyDSL string, status RunStatus) ([]byte, error) {
	return json.Marshal(wireRecord{
		Run:      run,
		Tenant:   tenant,
		V:        wireVersion,
		At:       ev.At,
		Type:     ev.Type,
		Phase:    ev.Phase,
		Check:    ev.Check,
		Outcome:  ev.Outcome,
		Detail:   ev.Detail,
		Strategy: strategyDSL,
		Status:   status,
	})
}

// FuzzRecordEncoding: appendRecord ≡ json.Marshal(wireRecord{…}), byte
// for byte and error for error, whatever the strings, numbers, instant
// and zone — and it appends: what dst already held stays.
func FuzzRecordEncoding(f *testing.F) {
	sec := func(year int) int64 { return time.Date(year, 6, 1, 12, 0, 0, 0, time.UTC).Unix() }
	f.Add("demo-canary-rollout", "", "check-result", "canary", "latency", "value=42.17", "", 1, 0, sec(2017), int64(0), 0)
	f.Add("acme/checkout", "acme", "run-launched", "", "", "service=checkout baseline=v1 candidate=v2 phases=2",
		"strategy \"checkout\" {\n\tservice = \"checkout\"\n}\n", 0, 0, sec(2017), int64(123456789), 3600)
	f.Add("r", "t", "run-finished", "", "", "rolled-back; retries exhausted", "", 0, 3, sec(2024), int64(500000000), -5*3600-1800)
	f.Add(`q"uote`, `back\slash`, "<>&", "tab\there", "nl\nbell\a\x00\x1f\x7f", "café     \U0001F600", "\xff\xfe bad \xc3", 2, 4, sec(1970), int64(1), 1)
	f.Add("", "", "", "", "", "", "", -1, -1, sec(-1), int64(0), 0)
	f.Add("y10k", "", "transition", "p", "", "next", "", 3, 1, sec(10000), int64(999999999), 0)
	f.Add("edge", "", "x", "", "", "", "", 0, 0, sec(9999), int64(0), 14*3600)
	f.Add("edge", "", "x", "", "", "", "", 0, 0, sec(0), int64(0), -14*3600)
	f.Add("zone", "", "x", "", "", "", "", 0, 0, sec(2017), int64(0), 24*3600)
	f.Add("zone", "", "x", "", "", "", "", 0, 0, sec(2017), int64(0), -100*3600)
	f.Add("zone", "", "x", "", "", "", "", 0, 0, sec(2017), int64(0), 59)

	f.Fuzz(func(t *testing.T, run, tenant, evType, phase, check, detail, strategy string,
		outcome, status int, unixSec, nsec int64, zoneSec int) {
		at := time.Unix(unixSec, nsec).UTC()
		if zoneSec != 0 {
			at = at.In(time.FixedZone("fuzz", zoneSec))
		}
		ev := Event{At: at, Type: EventType(evType), Phase: phase, Check: check, Outcome: Outcome(outcome), Detail: detail}
		want, wantErr := marshalRecord(run, tenant, ev, strategy, RunStatus(status))
		prefix := []byte("kept:")
		got, gotErr := appendRecord(prefix, run, tenant, ev, strategy, RunStatus(status))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error = %v, json.Marshal's = %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("dst's contents were not kept: %q", got)
		}
		if got = got[len(prefix):]; !bytes.Equal(got, want) {
			t.Fatalf("record differs from json.Marshal:\n got: %s\nwant: %s", got, want)
		}
	})
}

// TestValueDetailMatchesSprintf pins the check-result detail to the
// fmt.Sprintf("value=%.4g") it replaced.
func TestValueDetailMatchesSprintf(t *testing.T) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 42.17, 0.5, 123456.7, 1234.5, 12345, 99995, 0.000012345,
		1e21, 1e-7, 1e100, -2.5e-300, math.SmallestNonzeroFloat64, 4.9406564584124654e-320,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		if got, want := valueDetail(v, ""), fmt.Sprintf("value=%.4g", v); got != want {
			t.Errorf("valueDetail(%v) = %q, want %q", v, got, want)
		}
		note := "baseline=17.3 ratio=1.02 (a note long enough to outgrow the stack scratch)"
		if got, want := valueDetail(v, note), fmt.Sprintf("value=%.4g", v)+"; "+note; got != want {
			t.Errorf("valueDetail(%v, note) = %q, want %q", v, got, want)
		}
	}
}
