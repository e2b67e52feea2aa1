// Health-assessment example: the topology-aware analysis of Chapter 5
// running live. The simulated shop is deployed as real HTTP servers
// behind routing proxies, spans stream through the bounded live
// collector, and a strategy gating on `kind = topology` is submitted to
// the control-plane API. The candidate recommender (v2) secretly calls
// the users service — a structural change its latency does not reveal —
// so the topology check trips and the engine rolls the release back.
// The live assessment is then read back from GET /v1/runs/{name}/health,
// exactly as `expctl health` would.
//
//	go run ./examples/healthcheck
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"contexp"
	"contexp/internal/microsim"
)

const strategyDSL = `
strategy "rec-v2-structural" {
    service   = "recommendation"
    baseline  = "v1"
    candidate = "v2"
    phase "canary" {
        practice    = canary
        traffic     = 50%
        duration    = 30s
        check "structure" {
            kind       = topology
            heuristic  = "subtree-weighted"
            min-traces = 10
            allow      = updated-callee-version, updated-caller-version, updated-version
            interval   = 250ms
        }
        on failure      -> rollback
        on inconclusive -> retry
        max-retries = 5
    }
}
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "healthcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	// The live pipeline: routing table, metric store, bounded span
	// collector, and the monitor folding settled traces into per-run
	// interaction graphs.
	table := contexp.NewRoutingTable()
	store := contexp.NewMetricStore()
	collector := contexp.NewLiveSpanCollector(50_000)
	monitor := contexp.NewHealthMonitor(collector, 100*time.Millisecond)

	engine, err := contexp.NewEngine(contexp.EngineConfig{
		Table: table, Store: store, Topology: monitor,
		DefaultCheckInterval: 250 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	srv, err := contexp.NewServer(contexp.ServerConfig{
		Engine: engine, Table: table, Store: store,
		Traces: collector, Health: monitor,
	})
	if err != nil {
		return err
	}
	api := httptest.NewServer(srv.Handler())
	defer api.Close()

	// Deploy the shop as real HTTP servers emitting spans.
	app, err := microsim.ShopApplication()
	if err != nil {
		return err
	}
	if err := microsim.InstallBaselineRoutes(app, table); err != nil {
		return err
	}
	shop, err := microsim.StartHTTP(app, table, store, microsim.HTTPConfig{
		LatencyScale: 0.02, Seed: 1, Traces: collector,
	})
	if err != nil {
		return err
	}
	defer shop.Close()

	// Drive user traffic at the entry proxy in the background; stop the
	// driver (and wait for its in-flight request) before the shop closes.
	stop := make(chan struct{})
	done := make(chan struct{})
	go driveUsers(shop.EntryURL(), collector, stop, done)
	defer func() { close(stop); <-done }()

	// Submit the structural-gate strategy over the live API.
	resp, err := http.Post(api.URL+"/v1/strategies", "text/plain", strings.NewReader(strategyDSL))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
	fmt.Println("submitted strategy \"rec-v2-structural\" (canary gated on check kind = topology)")

	// Wait for the engine's verdict.
	run, _ := engine.Get("rec-v2-structural")
	select {
	case <-run.Done():
	case <-time.After(30 * time.Second):
		return fmt.Errorf("strategy did not conclude in time")
	}
	fmt.Printf("run concluded: %s\n\n", run.Status())

	// Read the live assessment back from the API.
	hr, err := http.Get(api.URL + "/v1/runs/rec-v2-structural/health")
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	var view contexp.AssessmentView
	if err := json.NewDecoder(hr.Body).Decode(&view); err != nil {
		return err
	}
	fmt.Printf("live assessment: %d baseline traces, %d candidate traces\n",
		view.BaselineTraces, view.CandidateTraces)
	fmt.Printf("baseline graph: %d nodes / %d edges; candidate graph: %d nodes / %d edges\n\n",
		view.BaselineGraph.Nodes, view.BaselineGraph.Edges,
		view.CandidateGraph.Nodes, view.CandidateGraph.Edges)
	fmt.Println(view.Report)

	tripped := false
	for _, ev := range run.Events() {
		if ev.Type == contexp.EventTopologyVerdict && ev.Outcome == contexp.OutcomeFail {
			fmt.Printf("tripping verdict: %s\n", ev.Detail)
			tripped = true
			break
		}
	}
	// The candidate's new dependency must be what rolled it back.
	if run.Status() != contexp.StatusRolledBack || !tripped {
		return fmt.Errorf("run ended %s with tripping topology verdict %v, want %s with one",
			run.Status(), tripped, contexp.StatusRolledBack)
	}
	return nil
}

// driveUsers plays a small user population against the entry proxy,
// minting one trace per request like a browser's traceparent.
func driveUsers(entryURL string, collector *contexp.LiveSpanCollector, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		req, err := http.NewRequest(http.MethodGet, entryURL, nil)
		if err != nil {
			return
		}
		req.Header.Set("X-User-ID", fmt.Sprintf("user-%04d", i%200))
		req.Header.Set(contexp.HeaderTraceID,
			strconv.FormatUint(uint64(collector.NextTraceID()), 16))
		resp, err := client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		time.Sleep(5 * time.Millisecond)
	}
}
